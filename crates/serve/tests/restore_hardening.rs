//! `Server::restore_state` on damaged images: whatever decodes is a server
//! that runs, the rest is a `CodecError` — never a panic at restore, and
//! never one later from a table that indexes past another.

use sensjoin_serve::{DeploymentSpec, ServeConfig, Server, Submission, TenantId};

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

/// The image of a server with one live tenant, one tombstone and one queued
/// submission — cut at every length, and with every byte overwritten by
/// `00`, `01`, `40` and `FF` — either fails structurally or restores to a
/// server that survives cancelling every tenant and running a tick.
#[test]
fn server_image_never_panics() {
    let spec = DeploymentSpec::new("dep0", 24, 11);
    let mut server = Server::new(ServeConfig::default());
    server.add_deployment(&spec).unwrap();
    assert!(server.submit(submission(0, 3.0)).is_none());
    assert!(server.submit(submission(1, 4.0)).is_none());
    server.tick().unwrap();
    assert!(server.cancel(TenantId(1)));
    assert!(server.submit(submission(2, 5.0)).is_none());
    let full = server.export_state();
    let restore = |bytes: &[u8]| {
        Server::restore_state(ServeConfig::default(), std::slice::from_ref(&spec), bytes)
    };
    assert!(restore(&full).is_ok());

    for cut in 0..full.len() {
        assert!(
            restore(&full[..cut]).is_err(),
            "cut at {cut} of {}",
            full.len()
        );
    }

    let mut restored = 0;
    for at in 0..full.len() {
        for byte in [0x00, 0x01, 0x40, 0xFF] {
            if full[at] == byte {
                continue;
            }
            let mut image = full.clone();
            image[at] = byte;
            let Ok(mut server) = restore(&image) else {
                continue;
            };
            restored += 1;
            let tenants: Vec<TenantId> = server.metrics().tenants().map(|(t, _)| t).collect();
            for tenant in tenants.into_iter().chain((0..3).map(TenantId)) {
                server.cancel(tenant);
            }
            server.tick().unwrap();
        }
    }
    assert!(restored > 0, "the sweep never reached cancel and tick");
}
