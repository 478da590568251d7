//! Fault injection: a queue worker dies mid-sweep, the daemon inherits the
//! wreckage and still completes — byte-identically.
//!
//! The scenario reuses the PR 5 idiom: before the daemon ever starts, the
//! sweep directory is staged as a crashed drain would have left it — a
//! completed slice of outcomes (the dead worker's finished runs), a claim
//! lock whose timestamp is ancient (the run it died holding), and a
//! leftover temp file. The daemon's drain must treat all of that exactly
//! like the batch queue worker does: valid outcomes are cache hits, the
//! stale claim is reclaimed, and the served artifact bundle comes out
//! byte-identical to a single-process `reproduce` run that never crashed.

mod common;

use common::*;
use shift_serve::Server;
use shift_sim::store::lock_file_name;
use shift_sim::{Execution, ShardSpec};

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

    // 2. It died *holding a claim* on a run it never finished: the lock's
    //    timestamp (1970) is stale under any TTL.
    let staged_matrix = staged.matrix();
    let victim = staged_matrix
        .canonical_order()
        .into_iter()
        .map(|slot| staged_matrix.key_ids()[slot])
        .find(|id| !sweep_dir.join(format!("run-{id}.json")).exists())
        .expect("an unfinished run exists");
    std::fs::write(
        sweep_dir.join(lock_file_name(victim)),
        format!(
            "{{\"schema\": 1, \"key_id\": \"{victim}\", \"worker\": \"dead-worker\", \
             \"claimed_unix\": 1000}}"
        ),
    )
    .unwrap();

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

    // The dead worker's finished runs were reused, the rest executed, and
    // the stale claim was reclaimed along the way.
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
    assert!(
        summary_u64(&response.body, "reclaimed") >= 1,
        "the dead worker's stale claim was reclaimed: {}",
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

    // The reclaim shows up in the progress stream, and no lock or claim
    // debris survives the drain (the junk temp file is inert but the
    // protocol files must be gone).
    let events = request(addr, "GET", &format!("/v1/sweeps/{id}/events"), None);
    assert_eq!(events.status, 200);
    assert!(
        events.body.lines().any(|l| l.contains("\"reclaimed\"")),
        "no reclaim event in: {}",
        events.body
    );
    assert!(!sweep_dir.join(lock_file_name(victim)).exists());
    assert_no_locks(&root);

    server.shutdown();
    std::fs::remove_dir_all(&root).unwrap();
}
