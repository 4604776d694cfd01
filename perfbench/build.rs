//! Build-time stamps for result records: the compiler version and the
//! git commit when the tree is a git checkout.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// HEAD's commit, read from `.git` without running git.
fn git_commit(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(c) = fs::read_to_string(git.join(name)) {
        return c.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".into())
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let repo = manifest.parent().expect("perfbench sits in the repo root");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={}", rustc_version());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={}", git_commit(repo));
    // Re-stamp when the commit moves; a toolchain change rebuilds anyway.
    println!("cargo:rerun-if-changed=build.rs");
    for d in [".git/HEAD", ".git/refs", ".git/packed-refs"] {
        let p = repo.join(d);
        if p.exists() {
            println!("cargo:rerun-if-changed={}", p.display());
        }
    }
}
