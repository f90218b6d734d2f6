//! Records the compiler version the harness was built with, for the
//! context block of every result.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().replace(' ', "_"));
    println!("cargo:rustc-env=MV_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
