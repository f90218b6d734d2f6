//! The `cli` layer: spawns the real `mvcloud-cli` as a process-level
//! cross-check of the in-process numbers.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use crate::stats;

/// Spawns per command whose wall median is reported.
pub const SPAWNS: usize = 10;
/// The same for a command that takes a second or more.
pub const SLOW_SPAWNS: usize = 5;

pub struct Cli {
    path: PathBuf,
}

impl Cli {
    /// Finds `mvcloud-cli` in the release directory of the target dir in
    /// force (`CARGO_TARGET_DIR`, else the repository's `target`). A
    /// fresh checkout has none, so it is built there from source first
    /// — offline, with the repository's own manifest. Fails loudly if
    /// the binary still is not there.
    pub fn locate_or_build() -> Result<Cli, String> {
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
        let path = target.join("release").join("mvcloud-cli");
        if !path.is_file() {
            eprintln!("mv-benchmark: {} missing, building it", path.display());
            let status = Command::new("cargo")
                .args(["build", "--release", "--offline", "--quiet"])
                .args(["-p", "mvcloud", "--bin", "mvcloud-cli"])
                .status()
                .map_err(|e| format!("cannot run cargo to build mvcloud-cli: {e}"))?;
            if !status.success() {
                return Err(format!("building mvcloud-cli failed ({status})"));
            }
        }
        if !path.is_file() {
            return Err(format!(
                "mvcloud-cli not found at {} (run from the repository root)",
                path.display()
            ));
        }
        Ok(Cli { path })
    }

    /// One spawn: stdout and wall milliseconds. A non-zero exit is an
    /// error carrying stderr.
    pub fn run(&self, args: &[String]) -> Result<(String, f64), String> {
        let start = Instant::now();
        let out = Command::new(&self.path)
            .args(args)
            .output()
            .map_err(|e| format!("spawn {}: {e}", self.path.display()))?;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if !out.status.success() {
            return Err(format!(
                "mvcloud-cli {} exited {}: {}",
                args.join(" "),
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let stdout = String::from_utf8(out.stdout).map_err(|e| format!("cli stdout: {e}"))?;
        Ok((stdout, wall_ms))
    }

    /// `spawns` spawns of one command: the last stdout and the wall
    /// median. `before_each` resets whatever the command mutates.
    pub fn median_wall(
        &self,
        args: &[String],
        spawns: usize,
        mut before_each: impl FnMut() -> Result<(), String>,
    ) -> Result<(String, f64), String> {
        let mut walls = Vec::with_capacity(spawns);
        let mut stdout = String::new();
        for _ in 0..spawns {
            before_each()?;
            let (out, wall_ms) = self.run(args)?;
            walls.push(wall_ms);
            stdout = out;
        }
        Ok((stdout, stats::median(&walls)))
    }
}

/// Splits a flag line into the `Vec<String>` a spawn takes.
pub fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}
