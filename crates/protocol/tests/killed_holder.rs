//! The kernel releases the store lock of a process that dies holding
//! it. The test re-runs its own binary as the holder, so it has a
//! binary of its own: from fork to exec a child holds a copy of every
//! descriptor its parent has open — a store's lock file among them —
//! and a test beside it that drops a store and reopens it could find
//! its own lock still held.

use fe_protocol::{EnrollmentStore, FileStore, ProtocolError, SystemParams};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Names the store the child is to hold.
const HOLDER_DIR: &str = "FE_STORE_TEST_HOLDER_DIR";
const READY: &str = "fe-store-test: holding the store";

/// The child opens the store named by [`HOLDER_DIR`], says so, and
/// sleeps until it is killed.
#[test]
fn a_killed_holder_releases_the_store() {
    let fp = SystemParams::insecure_test_defaults().fingerprint();
    if let Some(dir) = std::env::var_os(HOLDER_DIR) {
        let _store = FileStore::open(dir, fp).unwrap();
        println!("{READY}");
        std::thread::sleep(Duration::from_secs(60));
        return;
    }

    let dir = std::env::temp_dir().join(format!(
        "fe-store-test-killed-holder-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "a_killed_holder_releases_the_store",
            "--nocapture",
        ])
        .env(HOLDER_DIR, &dir)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let ready = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .map_while(Result::ok)
        .any(|line| line.contains(READY));
    let while_alive = FileStore::open(&dir, fp);
    child.kill().unwrap();
    child.wait().unwrap();
    assert!(ready, "the holder never opened the store");
    match while_alive {
        Err(ProtocolError::Storage(msg)) => {
            assert!(
                msg.ends_with(&format!("held by pid {})", child.id())),
                "{msg}"
            );
        }
        other => panic!(
            "expected a refusal naming pid {}, got {other:?}",
            child.id()
        ),
    }

    let killed = Instant::now();
    let store = loop {
        match FileStore::open(&dir, fp) {
            Ok(store) => break store,
            Err(_) if killed.elapsed() < Duration::from_secs(1) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("the killed holder's lock outlived it: {e}"),
        }
    };
    assert_eq!(store.journal_len(), 0);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
