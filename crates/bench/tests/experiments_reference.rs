//! `experiments <subcommand>` prints exactly what `tests/reference/`
//! holds: the stdout of the ten programs it replaced (one per
//! subcommand) and the CSV series `all` and `sweeps` write under
//! `results/`, recorded on the commit *before* the ten were folded into
//! one binary. Every run is seeded, so the text is exact; if a file
//! moves, a table or a figure moved — do not re-record it to make a
//! change pass.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The subcommands; `tests/reference/<name>.txt` is each one's stdout.
const SUBCOMMANDS: [&str; 10] = [
    "excerpt",
    "pricing",
    "examples",
    "space",
    "mv1",
    "mv2",
    "mv3",
    "sweeps",
    "ablations",
    "all",
];

fn reference() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/reference")
}

#[test]
fn every_experiment_prints_its_recorded_output() {
    // The programs write `results/` under the working directory.
    let cwd = std::env::temp_dir().join(format!("mv-bench-reference-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("create scratch dir");
    for stem in SUBCOMMANDS {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .arg(stem)
            .current_dir(&cwd)
            .output()
            .expect("spawn experiments");
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

    // `all --out DIR` writes the same series elsewhere and says so.
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["all", "--out", "elsewhere"])
        .current_dir(&cwd)
        .output()
        .expect("spawn experiments");
    assert!(out.status.success(), "all --out: {:?}", out.status);
    let want = std::fs::read_to_string(reference().join("all.txt")).expect("recorded stdout");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        want.replace("results/", "elsewhere/")
    );
    let name = "table8_fig5d_mv3_a07.csv";
    assert_eq!(
        std::fs::read(cwd.join("elsewhere").join(name)).expect("series under --out"),
        std::fs::read(recorded.join(name)).expect("recorded series")
    );

    // Anything else is a usage error, not a silent default.
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("mv4")
        .output()
        .expect("spawn experiments");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: experiments"));
    std::fs::remove_dir_all(&cwd).ok();
}
