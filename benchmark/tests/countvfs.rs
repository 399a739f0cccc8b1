//! The counting `Vfs` wrapper forwards every call and counts bytes exactly.

use manic_benchmark::countvfs::CountingVfs;
use manic_benchmark::world::out_dir;
use std::io::Write;
use std::sync::atomic::Ordering::Relaxed;

#[test]
fn forwards_every_call_and_counts_bytes_exactly() {
    let dir = out_dir().join(format!("countvfs-test-{}", std::process::id()));
    let (vfs, counts) = CountingVfs::around(manic_vfs::real());
    assert_eq!(vfs.kind(), manic_vfs::real().kind());

    vfs.create_dir_all(&dir).unwrap();
    assert!(vfs.exists(&dir));
    let a = dir.join("a.seg");
    let mut f = vfs.create(&a).unwrap();
    f.write_all(b"hello, ").unwrap();
    f.write_all(b"world").unwrap();
    f.flush().unwrap();
    f.sync_data().unwrap();
    f.sync_all().unwrap();
    drop(f);
    assert_eq!(vfs.read(&a).unwrap(), b"hello, world");
    assert_eq!(counts.bytes_written.load(Relaxed), 12);
    assert_eq!(counts.fsyncs.load(Relaxed), 2);

    // Reopen, truncate, seek, overwrite: all through the wrapper.
    let mut f = vfs.open_rw(&a).unwrap();
    f.set_len(5).unwrap();
    f.seek_to(5).unwrap();
    f.write_all(b"!").unwrap();
    drop(f);
    assert_eq!(vfs.read_to_string(&a).unwrap(), "hello!");
    assert_eq!(counts.bytes_written.load(Relaxed), 13);

    let b = dir.join("b.seg");
    vfs.rename(&a, &b).unwrap();
    assert!(!vfs.exists(&a) && vfs.exists(&b));
    assert_eq!(vfs.read_dir_names(&dir).unwrap(), vec!["b.seg".to_string()]);
    vfs.sync_dir(&dir).unwrap();
    assert_eq!(counts.fsyncs.load(Relaxed), 3);
    vfs.remove_file(&b).unwrap();
    assert!(!vfs.exists(&b));
    vfs.remove_dir_all(&dir).unwrap();
    assert!(!dir.exists());

    // What the real disk saw is what the wrapper reported, and errors pass
    // through untouched.
    assert!(vfs.read(&b).is_err());
    assert!(counts.fsync_ns.load(Relaxed) > 0);
}
