//! An idle connection costs the server no wake-ups. Counted, not
//! timed: the kernel's per-thread count of voluntary context switches
//! (`/proc/self/task/*/status`) over the front door's threads while two
//! handshaken connections say nothing for a second. One test in its
//! own binary, so no other test's server threads share the process.
#![cfg(target_os = "linux")]

use fuzzy_id::net::handshake::client_handshake;
use fuzzy_id::net::{NetConfig, NetServer, DEFAULT_MAX_FRAME};
use fuzzy_id::protocol::scheduler::{ScheduledServer, SchedulerConfig};
use fuzzy_id::protocol::SystemParams;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Voluntary context switches summed over this process's threads whose
/// name starts with `fe-net` (accept, connection readers and writers).
fn front_door_switches() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let path = task.expect("task entry").path();
        // A thread that ended between the listing and the read counts 0.
        let Ok(comm) = std::fs::read_to_string(path.join("comm")) else {
            continue;
        };
        if !comm.starts_with("fe-net") {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(path.join("status")) else {
            continue;
        };
        total += status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .map_or(0, |n| n.trim().parse::<u64>().expect("a count"));
    }
    total
}

#[test]
fn idle_connections_cost_no_wake_ups() {
    let params = SystemParams::insecure_test_defaults();
    let scheduler = Arc::new(ScheduledServer::scan(
        params.clone(),
        1,
        SchedulerConfig::default(),
    ));
    let server = NetServer::spawn(scheduler, "127.0.0.1:0", NetConfig::default()).unwrap();
    let connections: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            client_handshake(&mut stream, &params.fingerprint(), DEFAULT_MAX_FRAME).unwrap();
            stream
        })
        .collect();
    // Let the connection threads reach their blocking reads.
    std::thread::sleep(Duration::from_millis(100));
    let before = front_door_switches();
    std::thread::sleep(Duration::from_secs(1));
    let woken = front_door_switches().saturating_sub(before);
    assert!(
        woken <= 2,
        "two idle connections woke the front door {woken} times in a second"
    );
    drop(connections);
    server.shutdown();
}
