//! Mid-run cancellation and same-tenant re-admission.
//!
//! Cancellation retires the tenant's [`sensjoin_core::QueryId`] (ids are
//! never reused), frees the tenant id for a fresh submission, and leaves
//! every other tenant's epochs untouched. A checkpoint taken while a group
//! carries a dead id restores with the survivors' ids intact — a cancelled
//! subscriber stays behind as a four-field tombstone, while its plan (and
//! the plan's SQL) goes with the plan's last subscriber. Sustained
//! cancel/submit churn therefore leaves the checkpoint bounded.

use sensjoin_serve::{DeploymentSpec, ServeConfig, Server, Submission, TenantId};

const NODES: usize = 40;

fn config() -> ServeConfig {
    ServeConfig {
        period_us: 30_000_000,
        ..ServeConfig::default()
    }
}

fn server() -> Server {
    let mut server = Server::new(config());
    server
        .add_deployment(&DeploymentSpec::new("dep0", NODES, 11))
        .expect("add deployment");
    server
}

fn submission(tenant: u64, c: f64) -> Submission {
    Submission {
        tenant: TenantId(tenant),
        deployment: "dep0".into(),
        sql: format!(
            "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
             WHERE A.temp - B.temp > {c} SAMPLE PERIOD 30"
        ),
        every: 1,
    }
}

/// Tenants whose epochs ran in a tick's report.
fn epoch_tenants(server: &mut Server) -> Vec<u64> {
    let report = server.tick().expect("tick");
    let mut tenants: Vec<u64> = report.epochs.iter().map(|e| e.tenant.0).collect();
    tenants.sort_unstable();
    tenants
}

#[test]
fn cancel_mid_run_retires_slot_and_spares_neighbors() {
    let mut server = server();
    assert!(server.submit(submission(0, 3.0)).is_none());
    assert!(server.submit(submission(1, 4.0)).is_none());
    assert_eq!(epoch_tenants(&mut server), vec![0, 1]);

    assert!(server.cancel(TenantId(0)), "tenant 0 was live");
    assert!(!server.cancel(TenantId(0)), "second cancel is a no-op");
    // The neighbor keeps running; the cancelled tenant's epochs stop.
    assert_eq!(epoch_tenants(&mut server), vec![1]);
    assert_eq!(epoch_tenants(&mut server), vec![1]);
}

#[test]
fn same_tenant_id_readmits_after_cancel() {
    let mut server = server();
    assert!(server.submit(submission(7, 3.0)).is_none());
    assert_eq!(epoch_tenants(&mut server), vec![7]);

    // Live tenants are duplicates...
    let dup = server.submit(submission(7, 5.0));
    assert!(
        dup.is_some_and(|d| !d.admitted()),
        "live tenant must not be re-admitted"
    );

    // ...but a cancelled id is free again, and the re-admitted query runs
    // (under a fresh id — retired ids are never reused).
    assert!(server.cancel(TenantId(7)));
    assert!(server.submit(submission(7, 5.0)).is_none());
    assert_eq!(epoch_tenants(&mut server), vec![7]);
    assert_eq!(epoch_tenants(&mut server), vec![7]);
}

#[test]
fn checkpoint_with_dead_slot_restores_query_ids() {
    let spec = DeploymentSpec::new("dep0", NODES, 11);
    let mut server = server();
    for t in 0..3 {
        assert!(server.submit(submission(t, 3.0 + t as f64)).is_none());
    }
    assert_eq!(epoch_tenants(&mut server), vec![0, 1, 2]);
    // Kill the middle slot, then keep running so the survivors' state
    // moves past the cancellation.
    assert!(server.cancel(TenantId(1)));
    assert_eq!(epoch_tenants(&mut server), vec![0, 2]);

    // Snapshot with the dead slot present, restore, and compare the
    // restored server's behavior and re-exported state bit for bit.
    let frozen = server.export_state();
    let mut restored =
        Server::restore_state(config(), std::slice::from_ref(&spec), &frozen).expect("restore");
    assert_eq!(restored.export_state(), frozen, "restore is a fixpoint");

    // Both servers must agree tick for tick — including the survivors'
    // QueryIds, which index past the dead slot.
    for _ in 0..3 {
        assert_eq!(epoch_tenants(&mut server), epoch_tenants(&mut restored));
    }
    assert_eq!(server.export_state(), restored.export_state());

    // And the restored server still accepts a re-admission of the
    // cancelled id.
    assert!(restored.submit(submission(1, 9.0)).is_none());
    assert_eq!(epoch_tenants(&mut restored), vec![0, 1, 2]);
}

/// 200 cancel/submit cycles of one SQL: each cycle leaves a tombstone (the
/// id's tenant and its four subscriber fields, 33 bytes) and nothing else —
/// the plan and its SQL go with the cancellation.
#[test]
fn checkpoint_stays_bounded_under_cancel_submit_cycles() {
    const TOMBSTONE: usize = 8 + 25;
    let mut server = server();
    let cycle = |server: &mut Server| {
        assert!(server.submit(submission(0, 3.0)).is_none());
        assert_eq!(epoch_tenants(server), vec![0]);
        assert!(server.cancel(TenantId(0)));
        server.export_state().len()
    };
    let first = cycle(&mut server);
    let mut last = first;
    for _ in 1..200 {
        last = cycle(&mut server);
    }
    assert!(
        last <= first + 199 * TOMBSTONE + 64,
        "checkpoint grew from {first} to {last} bytes over 199 cycles"
    );
    assert_eq!(server.groups(sensjoin_serve::DeploymentId(0))[0].plans(), 0);
}
