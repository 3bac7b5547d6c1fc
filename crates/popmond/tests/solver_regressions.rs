//! Request streams that once crashed the daemon inside the solver, replayed
//! single-threaded through a fresh [`Service`]. Each must answer every line
//! with a typed response instead of panicking.

use placement::delta::DeltaInstance;
use popgen::{PopSpec, TrafficSpec};
use popmond::json::{self, Value};
use popmond::workload::{Session, SessionSpec};
use popmond::{Service, ServiceConfig};

/// A routed `small`-preset session whose 312th line, `solve ppm exact
/// k=0.9`, reached branch-and-bound with a root LP value of `x_e10 =
/// 1.0000031` on a binary. Branching on it queued the up-child `[2, 1]`,
/// whose LP returned `x = 2`, and the rounding heuristic's `clamp(2, 1)`
/// panicked.
#[test]
fn binary_above_its_bound_in_the_root_lp_does_not_panic() {
    let instance_seed = 526_385_195;
    let mut mix = (instance_seed + 1u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    mix ^= mix >> 29;
    let mut session = Session::new(SessionSpec {
        id: "s3g5".to_string(),
        spec: "small".to_string(),
        instance_seed,
        request_seed: mix | 1,
        routed: true,
    });
    let pop = PopSpec::small().build();
    let ts = TrafficSpec::default().generate(&pop, instance_seed);
    let traffics = DeltaInstance::from_traffic(&pop.graph, &ts).traffic_count();

    let service = Service::new(ServiceConfig::default());
    let load = session.next_line();
    assert!(ok(&service.handle_line(&load).text), "{load}");
    session.observe_load(pop.graph.edge_count(), traffics);
    for _ in 2..312 {
        service.handle_line(&session.next_line());
    }
    let solve = session.next_line();
    assert!(solve.contains(r#""op":"solve""#), "{solve}");
    assert!(solve.contains(r#""k":0.9"#), "{solve}");
    let reply = service.handle_line(&solve).text;
    assert!(ok(&reply), "{reply}");
}

fn ok(reply: &str) -> bool {
    matches!(
        json::parse(reply).as_ref().map(|v| v.get("ok")),
        Ok(Some(Value::Bool(true)))
    )
}
