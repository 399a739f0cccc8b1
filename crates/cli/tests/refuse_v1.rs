//! `manic` against a data dir of another checkpoint format version: every
//! command that would read it exits 3 with a message naming both versions,
//! and the directory is byte-identical afterwards.

use std::path::{Path, PathBuf};
use std::process::Command;

fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for e in std::fs::read_dir(dir).unwrap().flatten() {
        let p = e.path();
        if p.is_dir() {
            out.extend(files(&p));
        } else {
            out.push((p.clone(), std::fs::read(&p).unwrap()));
        }
    }
    out.sort();
    out
}

#[test]
fn run_serve_and_recover_exit_3_on_a_v1_dir_and_leave_it_alone() {
    let manic = env!("CARGO_BIN_EXE_manic");
    let dir = std::env::temp_dir().join(format!("manic-cli-refuse-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dd = dir.to_str().unwrap();
    let run = ["run", "--hours", "2", "--quiet", "--data-dir", dd, "--checkpoint-every", "6"];
    assert!(Command::new(manic).args(run).output().unwrap().status.success());

    // Turn every generation into what a version-1 binary would have left:
    // same fields, `"version":1` (a meta without a crc field is accepted
    // as-is, so the version check is what answers).
    let mut metas = 0;
    for (path, bytes) in files(&dir) {
        if path.file_name().unwrap().to_string_lossy().starts_with("checkpoint-") {
            let text = String::from_utf8(bytes).unwrap();
            let body = text[..text.rfind(",\"crc\":\"").unwrap()].replacen("\"version\":2", "\"version\":1", 1);
            std::fs::write(&path, format!("{body}}}")).unwrap();
            metas += 1;
        }
    }
    assert!(metas >= 2);
    let before = files(&dir);

    let resume = [&run[..], &["--resume"]].concat();
    let serve = ["serve", "--addr", "127.0.0.1:0", "--hours", "2", "--quiet", "--data-dir", dd, "--resume"];
    for args in [&resume[..], &serve[..], &["recover", dd][..]] {
        let out = Command::new(manic).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{args:?}: {stderr}");
        assert!(stderr.contains("version 1") && stderr.contains("version 2"), "{args:?}: {stderr}");
        assert!(files(&dir) == before, "{args:?} modified the directory");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
