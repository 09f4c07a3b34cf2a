//! Every product manifest says what its crate uses: a `[dependencies]`
//! entry is named in the crate's `src/`, and a `[dev-dependencies]`
//! entry in its `src/` or `tests/`. An edge nobody names still orders
//! the build, links the crate and, when it points back up the stack,
//! hides a cycle; this test makes such edges fail instead of linger.

use std::path::{Path, PathBuf};

/// The workspace root: this crate lives at `crates/pema-bench`.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The root package and every crate under `crates/`.
fn product_crates() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs.insert(0, root());
    dirs
}

/// `(section, dependency name)` for each entry of the two dependency
/// tables of a manifest.
fn dependencies(manifest: &str) -> Vec<(&'static str, String)> {
    let mut section = None;
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = match line {
                "[dependencies]" => Some("dependencies"),
                "[dev-dependencies]" => Some("dev-dependencies"),
                _ => None,
            };
        } else if let Some(section) = section {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let name = line.split(['.', '=']).next().unwrap().trim();
            deps.push((section, name.to_string()));
        }
    }
    deps
}

/// The text of every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut String) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push_str(&std::fs::read_to_string(&path).unwrap());
            out.push('\n');
        }
    }
}

/// True when `code` names crate `ident` as a path root (`ident::…`) or
/// imports it (`use ident`).
fn names(code: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(ident).any(|(at, _)| {
        let before = &code[..at];
        let after = &code[at + ident.len()..];
        !before.ends_with(is_ident)
            && !after.starts_with(is_ident)
            && (after.starts_with("::") || before.ends_with("use "))
    })
}

#[test]
fn every_dependency_is_named_where_it_is_used() {
    let mut unused = Vec::new();
    for dir in product_crates() {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let mut src = String::new();
        rust_sources(&dir.join("src"), &mut src);
        let mut tests = src.clone();
        rust_sources(&dir.join("tests"), &mut tests);
        for (section, name) in dependencies(&manifest) {
            let code = if section == "dependencies" {
                &src
            } else {
                &tests
            };
            if !names(code, &name.replace('-', "_")) {
                let krate = dir.canonicalize().unwrap();
                let krate = krate.file_name().unwrap().to_string_lossy().into_owned();
                unused.push(format!("{krate}: [{section}] {name}"));
            }
        }
    }
    assert!(
        unused.is_empty(),
        "manifest entries no code names:\n  {}",
        unused.join("\n  ")
    );
}

#[test]
fn the_name_check_sees_paths_and_imports_only() {
    assert!(names("use pema_sim::Allocation;", "pema_sim"));
    assert!(names("pub use pema_apps;", "pema_apps"));
    assert!(names("let x = rand::random();", "rand"));
    assert!(!names("use pema_sim_extra::X;", "pema_sim"));
    assert!(!names("let grand::x = 1;", "rand"));
    assert!(!names("//! see [`pema_metrics`]", "pema_metrics"));
}
