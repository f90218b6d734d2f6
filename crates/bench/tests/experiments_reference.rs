//! The paper-figure binaries print exactly what `tests/reference/`
//! holds: the stdout of each of the ten `src/bin` programs and the CSV
//! series `all_experiments` and `figure5_sweeps` write under
//! `results/`, recorded on the commit *before* the ten were folded into
//! one `experiments` binary. Every run is seeded, so the text is exact;
//! if a file moves, a table or a figure moved — do not re-record it to
//! make a change pass.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(reference file stem, binary, arguments)`.
const RUNS: [(&str, &str, &[&str]); 10] = [
    ("excerpt", env!("CARGO_BIN_EXE_dataset_excerpt"), &[]),
    ("pricing", env!("CARGO_BIN_EXE_pricing_tables"), &[]),
    ("examples", env!("CARGO_BIN_EXE_examples_walkthrough"), &[]),
    ("space", env!("CARGO_BIN_EXE_solution_space"), &[]),
    ("mv1", env!("CARGO_BIN_EXE_scenario_mv1"), &[]),
    ("mv2", env!("CARGO_BIN_EXE_scenario_mv2"), &[]),
    ("mv3", env!("CARGO_BIN_EXE_scenario_mv3"), &[]),
    ("sweeps", env!("CARGO_BIN_EXE_figure5_sweeps"), &[]),
    ("ablations", env!("CARGO_BIN_EXE_ablations"), &[]),
    ("all", env!("CARGO_BIN_EXE_all_experiments"), &[]),
];

fn reference() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/reference")
}

#[test]
fn every_experiment_prints_its_recorded_output() {
    // The programs write `results/` under the working directory.
    let cwd = std::env::temp_dir().join(format!("mv-bench-reference-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("create scratch dir");
    for (stem, bin, args) in RUNS {
        let out = Command::new(bin)
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("spawn experiment binary");
        assert!(
            out.status.success(),
            "{stem}: exit {:?}, stderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let want = std::fs::read_to_string(reference().join(format!("{stem}.txt")))
            .expect("recorded stdout");
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "{stem} stdout");
    }
    let recorded = reference().join("results");
    let mut series = 0;
    for entry in std::fs::read_dir(&recorded).expect("recorded results") {
        let name = entry.expect("directory entry").file_name();
        let want = std::fs::read_to_string(recorded.join(&name)).expect("recorded series");
        let got = std::fs::read_to_string(cwd.join("results").join(&name))
            .unwrap_or_else(|e| panic!("{name:?} was not written: {e}"));
        assert_eq!(got, want, "{name:?}");
        series += 1;
    }
    assert_eq!(series, 7, "four table series and three sweeps");
    std::fs::remove_dir_all(&cwd).ok();
}
