//! `ProcessExecutor` must reap every worker on its error paths.
//!
//! A fake worker script stands in for `nn-lab --worker`: shard 1 writes
//! its PID and then sleeps for a minute, shard 0 waits for that PID and
//! exits 3. `execute` fails on shard 0, and by the time it returns the
//! sleeping shard 1 must be gone — killed and waited for, not left
//! running (or as a zombie) behind the error.
//!
//! This is its own test binary, so no sibling test thread forks while the
//! script is still open for writing (which would make exec fail with
//! "text file busy").

#![cfg(target_os = "linux")]

use nn_lab::{named_matrix, CellExecutor, ExecutionPlan, ProcessExecutor};
use std::os::unix::fs::PermissionsExt as _;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

const FAKE_WORKER: &str = r#"#!/bin/sh
# Called as: worker --worker --shard I/N --matrix NAME
dir=$(dirname "$0")
if [ "$3" = 1/2 ]; then
    echo $$ > "$dir/pid.tmp" && mv "$dir/pid.tmp" "$dir/pid"
    exec sleep 60
fi
while [ ! -e "$dir/pid" ]; do sleep 0.01; done
exit 3
"#;

#[test]
fn a_failed_worker_takes_its_siblings_down_with_it() {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after the epoch")
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("nn-lab-reap-{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let script = dir.join("worker.sh");
    std::fs::write(&script, FAKE_WORKER).expect("write fake worker");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).expect("chmod");

    let spec = named_matrix("paper").expect("paper matrix exists");
    let plan = ExecutionPlan::new(&spec, 2);
    let err = ProcessExecutor::new(script, "paper")
        .execute(&plan)
        .expect_err("shard 0 exits 3");
    assert!(err.contains("worker 0 exited"), "{err}");

    let pid = std::fs::read_to_string(dir.join("pid")).expect("shard 1 wrote its pid");
    let pid = pid.trim();
    let alive = Path::new("/proc").join(pid).exists();
    std::fs::remove_dir_all(&dir).expect("clean up temp dir");
    assert!(!alive, "worker 1 (pid {pid}) outlived the failed execute");
}
