//! A redialed call connection on a shaped WAN link continues its lane's
//! loss schedule: the retry after a lost send draws the lane's next ops
//! instead of replaying the loss that killed the first attempt.

use std::time::Duration;

use ninf_client::{CallOptions, NinfClient};
use ninf_protocol::{planned_shape, LinkShape, ShapeKind, Value};
use ninf_server::{builtin::register_stdlib, NinfServer, Registry, ServerConfig};

/// A lossy link whose call lane (lane 0, alone on the link) loses its
/// first send and delivers the next two: the stage-1 query and the invoke
/// of a retried call.
fn first_send_lost_shape() -> LinkShape {
    (1..)
        .map(|seed| LinkShape {
            loss_ppm: 500_000,
            seed,
            ..LinkShape::default()
        })
        .find(|shape| {
            let draw = |op| planned_shape(shape, 0, 1, op);
            draw(0) == ShapeKind::Lose
                && draw(1) == ShapeKind::Forward
                && draw(2) == ShapeKind::Forward
        })
        .unwrap()
}

#[test]
fn retry_after_a_lost_send_continues_the_lane_schedule() {
    let mut registry = Registry::new();
    register_stdlib(&mut registry, false);
    let server = NinfServer::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let options = CallOptions {
        deadline: Some(Duration::from_millis(300)),
        retries: 3,
        backoff: Duration::from_millis(10),
        wan: Some(first_send_lost_shape()),
        ..CallOptions::default()
    };
    let mut client = NinfClient::connect_with(&addr, options).unwrap();
    let out = client.ninf_call("ep", &[Value::Int(4)]);
    let timing = client.last_timing().unwrap();
    assert!(
        out.is_ok(),
        "the redialed attempt must get through: {out:?}"
    );
    assert_eq!(timing.attempts, 2, "one lost query, one clean attempt");
    server.shutdown();
}
