//! Durability differentials: a daemon recovered from its data
//! directory must be indistinguishable — byte for byte — from one
//! that never went down, and the on-disk wire format must stay
//! stable.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use gridvo_core::reputation::ReputationEngine;
use gridvo_core::{ExecutionReceipt, FormationScenario};
use gridvo_service::protocol::{MechanismKind, Response};
use gridvo_service::{
    DurableRegistry, GspRegistry, PersistConfig, RegistryEvent, ServerConfig, ServerHandle,
    ServiceClient,
};
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_store::{FsyncPolicy, JOURNAL_FILE};
use rand::SeedableRng;

static SCRATCH: AtomicUsize = AtomicUsize::new(0);

fn scratch(name: &str) -> PathBuf {
    let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("gridvo-svc-persist-{}-{name}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scenario() -> FormationScenario {
    let cfg = TableI { task_sizes: vec![12], gsps: 5, ..TableI::small() };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    ScenarioGenerator::new(cfg).scenario(12, &mut rng).expect("feasible small scenario")
}

fn persist(dir: &Path) -> PersistConfig {
    PersistConfig { data_dir: dir.to_path_buf(), fsync: FsyncPolicy::Off, compact_bytes: u64::MAX }
}

fn spawn(persistence: Option<PersistConfig>) -> ServerHandle {
    let config = ServerConfig { persistence, ..ServerConfig::default() };
    ServerHandle::spawn(&scenario(), config).expect("bind loopback")
}

/// The deterministic mutation stream both daemons are fed.
fn mutate(client: &mut ServiceClient, tasks: usize) {
    client.report_trust(0, 2, 0.9).unwrap();
    client.add_gsp(120.0, vec![2.0; tasks], vec![0.5; tasks]).unwrap();
    client.report_trust(5, 1, 0.7).unwrap();
    client.remove_gsp(3).unwrap();
    client.report_trust(2, 4, 0.4).unwrap();
    client.report_receipt(ExecutionReceipt::new(1, 1, true, 8.0, vec![0, 2])).unwrap();
    client.report_receipt(ExecutionReceipt::new(2, 4, false, 5.5, vec![1, 3])).unwrap();
}

fn form_bytes(client: &mut ServiceClient, seed: u64) -> String {
    match client.form(seed, MechanismKind::Tvof, None).unwrap() {
        Response::Form { outcome, .. } => serde_json::to_string(&outcome).unwrap(),
        other => panic!("expected form response, got {:?}", other.kind()),
    }
}

#[test]
fn recovered_daemon_is_byte_identical_to_an_uninterrupted_one() {
    let dir = scratch("differential");
    let tasks = scenario().task_count();

    // Durable daemon: mutate, capture, shut down.
    let handle = spawn(Some(persist(&dir)));
    assert_eq!(handle.recovered_epoch(), None, "a fresh data dir must bootstrap");
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    mutate(&mut client, tasks);
    let want_registry = serde_json::to_string(&client.registry().unwrap()).unwrap();
    let want_form = form_bytes(&mut client, 42);
    handle.shutdown();

    // Recovery: same data dir, same bytes out.
    let handle = spawn(Some(persist(&dir)));
    assert_eq!(handle.recovered_epoch(), Some(7));
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    assert_eq!(
        serde_json::to_string(&client.registry().unwrap()).unwrap(),
        want_registry,
        "recovered registry snapshot differs from the uninterrupted daemon's"
    );
    assert_eq!(
        form_bytes(&mut client, 42),
        want_form,
        "recovered daemon serves different formation bytes"
    );
    handle.shutdown();

    // An in-memory daemon fed the identical stream agrees too: the
    // journal adds durability, never behavior.
    let handle = spawn(None);
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    mutate(&mut client, tasks);
    assert_eq!(serde_json::to_string(&client.registry().unwrap()).unwrap(), want_registry);
    assert_eq!(form_bytes(&mut client, 42), want_form);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A data directory written by a daemon whose compaction snapshots
/// still serialized the registry's full event log: a snapshot at epoch
/// 7 (after [`mutate`], with an `events` array) plus a two-event
/// journal tail.
const LEGACY_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/legacy_snapshot");

/// The two mutations in [`LEGACY_DIR`]'s journal tail.
fn mutate_tail(client: &mut ServiceClient) {
    client.report_trust(4, 0, 0.35).unwrap();
    client.report_receipt(ExecutionReceipt::new(3, 0, true, 4.0, vec![2, 4])).unwrap();
}

#[test]
fn legacy_snapshot_with_an_event_log_recovers_byte_identically() {
    let dir = scratch("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(LEGACY_DIR).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    let snapshot = std::fs::read_to_string(dir.join("snapshot-00000000000000000007.json")).unwrap();
    assert!(snapshot.contains("\"events\":[{"), "the golden must carry a legacy event log");

    let handle = spawn(None);
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    mutate(&mut client, scenario().task_count());
    mutate_tail(&mut client);
    let want_registry = serde_json::to_string(&client.registry().unwrap()).unwrap();
    let want_form = form_bytes(&mut client, 42);
    handle.shutdown();

    let handle = spawn(Some(persist(&dir)));
    assert_eq!(handle.recovered_epoch(), Some(9));
    let mut client = ServiceClient::connect(handle.addr()).unwrap();
    assert_eq!(serde_json::to_string(&client.registry().unwrap()).unwrap(), want_registry);
    assert_eq!(form_bytes(&mut client, 42), want_form);
    handle.shutdown();

    // The next compaction writes a snapshot without the log.
    let config = PersistConfig { compact_bytes: 1, ..persist(&dir) };
    let (mut durable, _) =
        DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
    durable.report_trust(0, 1, 0.6).unwrap();
    drop(durable);
    let compacted =
        std::fs::read_to_string(dir.join("snapshot-00000000000000000010.json")).unwrap();
    assert!(!compacted.contains("\"events\""), "new snapshots carry no event log");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tails_recover_to_exact_prefixes() {
    let dir = scratch("torn");
    let engine = ReputationEngine::default;
    let config = persist(&dir);

    let (mut durable, _) = DurableRegistry::open(&scenario(), engine(), Some(&config)).unwrap();
    let mut full_events: Vec<RegistryEvent> = Vec::new();
    let mut logged = |durable: &DurableRegistry| {
        full_events.push(durable.registry().last_event().cloned().expect("mutation logged"))
    };
    durable.report_trust(0, 2, 0.9).unwrap();
    logged(&durable);
    durable.add_gsp(120.0, &[2.0; 12], &[0.5; 12]).unwrap();
    logged(&durable);
    durable.report_trust(5, 1, 0.7).unwrap();
    logged(&durable);
    durable.remove_gsp(3).unwrap();
    logged(&durable);
    durable.report_receipt(&ExecutionReceipt::new(0, 2, true, 6.0, vec![0, 1])).unwrap();
    logged(&durable);
    drop(durable);
    let journal_path = dir.join(JOURNAL_FILE);
    let pristine = std::fs::read(&journal_path).unwrap();

    // Cut the journal at every byte offset, descending: recovery must
    // always yield a valid prefix whose epoch matches a fresh replay
    // of that many events.
    let mut last_epoch = full_events.len() as u64;
    for cut in (0..pristine.len()).rev() {
        std::fs::write(&journal_path, &pristine[..cut]).unwrap();
        let (recovered, epoch) =
            DurableRegistry::open(&scenario(), engine(), Some(&config)).unwrap();
        let epoch = epoch.expect("bootstrap snapshot always recovers");
        assert!(epoch <= last_epoch, "cut at {cut} grew the recovered prefix");
        last_epoch = epoch;

        let mut replayed = GspRegistry::from_scenario(&scenario(), engine()).unwrap();
        for ev in &full_events[..epoch as usize] {
            replayed.apply_event(ev).unwrap();
        }
        assert_eq!(
            serde_json::to_string(&recovered.registry().snapshot()).unwrap(),
            serde_json::to_string(&replayed.snapshot()).unwrap(),
            "cut at {cut} recovered something other than the {epoch}-event prefix"
        );
    }
    assert_eq!(last_epoch, 0, "cutting to zero bytes must recover the bare bootstrap");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopening_without_new_mutations_is_idempotent() {
    let dir = scratch("idempotent");
    let config = persist(&dir);
    let (mut durable, _) =
        DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
    durable.report_trust(0, 1, 0.8).unwrap();
    durable.report_trust(1, 0, 0.6).unwrap();
    let want = serde_json::to_string(&durable.registry().snapshot()).unwrap();
    drop(durable);

    for round in 0..3 {
        let (durable, epoch) =
            DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
        assert_eq!(epoch, Some(2), "reopen {round} drifted the epoch");
        assert_eq!(
            serde_json::to_string(&durable.registry().snapshot()).unwrap(),
            want,
            "reopen {round} drifted the state"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aggressive_compaction_survives_restarts() {
    let dir = scratch("compact");
    let config = PersistConfig {
        data_dir: dir.clone(),
        fsync: FsyncPolicy::PerEpoch { every: 2 },
        compact_bytes: 1, // compact after every single append
    };
    let mut want = String::new();
    for restart in 0..4 {
        let (mut durable, epoch) =
            DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
        if restart == 0 {
            assert_eq!(epoch, None);
        } else {
            assert_eq!(epoch, Some(restart * 2), "restart {restart} lost mutations");
            assert_eq!(
                serde_json::to_string(&durable.registry().snapshot()).unwrap(),
                want,
                "restart {restart} recovered drifted state"
            );
        }
        durable.report_trust(0, 1, 0.5 + 0.05 * restart as f64).unwrap();
        durable.report_trust(1, 2, 0.9 - 0.05 * restart as f64).unwrap();
        let stats = durable.store_stats().unwrap();
        assert_eq!(stats.journal_len, 0, "every append must have been compacted away");
        want = serde_json::to_string(&durable.registry().snapshot()).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registry_event_wire_format_is_stable() {
    // Golden lines: changing the serialized shape of `RegistryEvent`
    // breaks every journal already on disk, so this test failing
    // means "write a migration", not "update the strings".
    let trust = RegistryEvent {
        epoch: 3,
        op: "report_trust".to_string(),
        gsp: Some(0),
        to: Some(2),
        value: Some(0.9),
        speed_gflops: None,
        cost: None,
        time: None,
        receipt: None,
        app: None,
        lease: None,
        members: None,
        reason: None,
    };
    assert_eq!(
        serde_json::to_string(&trust).unwrap(),
        "{\"epoch\":3,\"op\":\"report_trust\",\"gsp\":0,\"to\":2,\"value\":0.9,\
         \"speed_gflops\":null,\"cost\":null,\"time\":null,\"receipt\":null,\
         \"app\":null,\"lease\":null,\"members\":null,\"reason\":null}"
    );
    let add = RegistryEvent {
        epoch: 1,
        op: "add_gsp".to_string(),
        gsp: Some(5),
        to: None,
        value: None,
        speed_gflops: Some(120.0),
        cost: Some(vec![2.0, 2.5]),
        time: Some(vec![0.5, 1.0]),
        receipt: None,
        app: None,
        lease: None,
        members: None,
        reason: None,
    };
    assert_eq!(
        serde_json::to_string(&add).unwrap(),
        "{\"epoch\":1,\"op\":\"add_gsp\",\"gsp\":5,\"to\":null,\"value\":null,\
         \"speed_gflops\":120.0,\"cost\":[2.0,2.5],\"time\":[0.5,1.0],\"receipt\":null,\
         \"app\":null,\"lease\":null,\"members\":null,\"reason\":null}"
    );

    // Decoding round-trips the golden lines…
    let back: RegistryEvent = serde_json::from_str(&serde_json::to_string(&add).unwrap()).unwrap();
    assert_eq!(back, add);
    // …and journals written before the add_gsp payload fields existed
    // (no such keys at all) still parse, with the payload absent.
    let legacy: RegistryEvent = serde_json::from_str(
        "{\"epoch\":2,\"op\":\"remove_gsp\",\"gsp\":1,\"to\":null,\"value\":null}",
    )
    .unwrap();
    assert_eq!(legacy.epoch, 2);
    assert_eq!(legacy.op, "remove_gsp");
    assert_eq!(legacy.speed_gflops, None);
    assert_eq!(legacy.cost, None);
    assert_eq!(legacy.receipt, None, "pre-receipt journal lines parse with no receipt");
}

#[test]
fn execution_receipt_wire_format_is_stable() {
    // Golden line for the receipt payload embedded in journal events
    // and `report_receipt` requests. Changing this shape invalidates
    // on-disk journals *and* every signed digest, so a failure here
    // means "write a migration", not "update the string".
    let receipt = ExecutionReceipt::new(2, 1, false, 12.5, vec![0, 3]);
    let line = serde_json::to_string(&receipt).unwrap();
    assert_eq!(
        line,
        format!(
            "{{\"round\":2,\"gsp\":1,\"success\":false,\"reward\":12.5,\
             \"witnesses\":[0,3],\"digest\":{}}}",
            receipt.digest
        )
    );
    let back: ExecutionReceipt = serde_json::from_str(&line).unwrap();
    assert_eq!(back, receipt);
    assert!(back.verify(), "decoded receipt must still verify its digest");

    // A journal event carrying a receipt keeps the flat fields null.
    let event = RegistryEvent {
        epoch: 7,
        op: "report_receipt".to_string(),
        gsp: None,
        to: None,
        value: None,
        speed_gflops: None,
        cost: None,
        time: None,
        receipt: Some(receipt.clone()),
        app: None,
        lease: None,
        members: None,
        reason: None,
    };
    assert_eq!(
        serde_json::to_string(&event).unwrap(),
        format!(
            "{{\"epoch\":7,\"op\":\"report_receipt\",\"gsp\":null,\"to\":null,\
             \"value\":null,\"speed_gflops\":null,\"cost\":null,\"time\":null,\
             \"receipt\":{line},\"app\":null,\"lease\":null,\"members\":null,\
             \"reason\":null}}"
        )
    );
    // Pre-receipt journals (no `receipt` key anywhere) still parse.
    let legacy: RegistryEvent = serde_json::from_str(
        "{\"epoch\":4,\"op\":\"report_trust\",\"gsp\":1,\"to\":0,\"value\":0.3,\
         \"speed_gflops\":null,\"cost\":null,\"time\":null}",
    )
    .unwrap();
    assert_eq!(legacy.receipt, None);

    // Tampering with any signed field breaks verification.
    let mut forged = receipt;
    forged.reward = 99.0;
    assert!(!forged.verify(), "a tampered reward must fail digest verification");
}
