//! Records the toolchain and source revision the benchmark was built
//! from, so every result can name them.

use std::path::Path;
use std::process::Command;

fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = first_line(Command::new(rustc).arg("--version"));
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        version.unwrap_or_else(|| "unknown".into())
    );

    // The repository root is the manifest's parent. Git must not walk
    // further up: a checkout without its own `.git` reports "unknown".
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    let sha = match root.join("..").canonicalize() {
        Ok(ceiling) => first_line(
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "--short=12", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", ceiling),
        ),
        Err(_) => None,
    };
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_SHA={}",
        sha.unwrap_or_else(|| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
    let head = root.join(".git").join("HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed={}", head.display());
        // A commit moves the branch ref, not HEAD itself.
        let target = std::fs::read_to_string(&head).unwrap_or_default();
        if let Some(reference) = target.trim().strip_prefix("ref: ") {
            let path = root.join(".git").join(reference);
            if path.exists() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
    }
}
