//! Fault injection: a worker dies mid-sweep, the daemon inherits the
//! wreckage and still completes — byte-identically.
//!
//! Before the daemon ever starts, the sweep directory is staged as crashed
//! drains would have left it — a completed slice of outcomes (the dead
//! worker's finished runs), a claim lock whose timestamp is ancient (a
//! queue worker that died long ago), a fresh claim lock (a daemon killed a
//! moment ago), and a leftover temp file. The daemon is the directory's
//! only writer and takes no claims: valid outcomes are cache hits, both
//! claimed runs re-execute with the claim files left as they are, and the
//! served artifact bundle comes out byte-identical to a single-process
//! `reproduce` run that never crashed.

mod common;

use common::*;
use shift_serve::Server;
use shift_sim::store::lock_file_name;
use shift_sim::{Execution, ShardSpec};
use std::time::{SystemTime, UNIX_EPOCH};

#[test]
fn daemon_completes_a_sweep_abandoned_by_a_killed_worker() {
    let root = temp_root("fault");
    let spec = test_spec(&["Tiny"]);

    // The single-process reference: same plan, no daemon, no crash.
    let reference_plan = plan_of(&spec);
    let matrix_fingerprint = reference_plan.matrix().fingerprint();
    let planned = reference_plan.run_count();

    // Stage the crash debris in the directory the daemon will use for this
    // plan's fingerprint.
    let config = test_config(&root);
    let sweep_dir = config.sweep_dir(&matrix_fingerprint.to_string());
    std::fs::create_dir_all(&sweep_dir).unwrap();

    // 1. The dead worker finished a quarter of the sweep before dying.
    let staged = plan_of(&spec);
    let shard_executed = Execution::new(staged.matrix())
        .dir(&sweep_dir)
        .shard(ShardSpec::new(1, 4))
        .serial()
        .run()
        .unwrap()
        .sources
        .executed;
    assert!(shard_executed > 0 && shard_executed < planned);

    // 2. Two runs it never finished are claimed: one by a worker that died
    //    long ago (the lock's 1970 timestamp is stale under any TTL), one by
    //    a daemon killed a moment ago (its claim still reads as fresh).
    let staged_matrix = staged.matrix();
    let mut unfinished = staged_matrix
        .canonical_order()
        .into_iter()
        .map(|slot| staged_matrix.key_ids()[slot])
        .filter(|id| !sweep_dir.join(format!("run-{id}.json")).exists());
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_secs();
    let claims: Vec<_> = [
        ("dead-worker".to_owned(), 1000),
        (format!("serve-{}", std::process::id()), now),
    ]
    .into_iter()
    .map(|(worker, claimed_unix)| {
        let victim = unfinished.next().expect("an unfinished run exists");
        let path = sweep_dir.join(lock_file_name(victim));
        let bytes = format!(
            "{{\"schema\": 1, \"key_id\": \"{victim}\", \"worker\": \"{worker}\", \
             \"claimed_unix\": {claimed_unix}}}"
        );
        std::fs::write(&path, &bytes).unwrap();
        (path, bytes)
    })
    .collect();

    // 3. And it left a half-written temp file behind.
    std::fs::write(
        sweep_dir.join(".tmp-killed.json"),
        "{\"schema\": 1, \"trunc",
    )
    .unwrap();

    // Boot the daemon over the wreckage and submit the plan.
    let server = Server::start(config, "127.0.0.1:0").expect("server starts");
    let addr = server.addr();
    let response = request(addr, "POST", "/v1/sweeps", Some(&spec_body(&spec)));
    assert_eq!(response.status, 200, "body: {}", response.body);

    // The dead worker's finished runs were reused, the rest executed — the
    // claimed runs included — and no claim was reclaimed.
    assert_eq!(summary_u64(&response.body, "planned") as usize, planned);
    assert_eq!(
        summary_u64(&response.body, "executed") as usize,
        planned - shard_executed,
        "only the crashed worker's unfinished runs re-execute"
    );
    assert_eq!(
        summary_u64(&response.body, "reused") as usize,
        shard_executed
    );
    assert_eq!(
        summary_u64(&response.body, "reclaimed"),
        0,
        "{}",
        response.body
    );

    // The served artifacts are byte-identical to the crash-free
    // single-process reproduction.
    let id = matrix_fingerprint.to_string();
    let bundle = request(addr, "GET", &format!("/v1/sweeps/{id}/artifacts"), None);
    assert_eq!(bundle.status, 200);
    let reference = reference_plan.execute();
    assert_bundle_matches(&bundle.body, &reference);

    let scoreboard = request(addr, "GET", &format!("/v1/sweeps/{id}/scoreboard"), None);
    assert_eq!(scoreboard.status, 200);
    assert_eq!(scoreboard.body, reference.scoreboard());

    // Both claim files are left exactly as staged.
    for (path, bytes) in &claims {
        assert_eq!(&std::fs::read_to_string(path).unwrap(), bytes);
    }

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}
