//! The in-process halves of a request workload's traced run.
//!
//! The daemon's transcript (request lines and reply lines, in send order)
//! is replayed twice in this process: through a fresh `popmond::Service`,
//! timing `Service::handle_line` and requiring byte-equal replies, and
//! through the layers themselves ([`Shadow`]), requiring the same answers.
//! The spans of both replays give the per-layer metrics below `popmond`.

use std::collections::BTreeMap;

use popmond::json;
use popmond::{Service, ServiceConfig};

use crate::report::Report;
use crate::requests::{self, Quality};
use crate::shadow::Shadow;
use crate::stats;
use crate::trace::{self, span, Totals};

/// What the replays measured.
pub struct Replayed {
    /// `handle_line` wall time per request, ns.
    pub handle_ns: Vec<u64>,
    /// Solver runs and memo hits over every instance.
    pub solves: u64,
    /// Memo hits.
    pub coalesced: u64,
}

/// Replays `lines` through a fresh service, one at a time; every reply
/// must be byte-equal to the daemon's. Returns each `handle_line` time, ns.
pub fn service_replay(report: &mut Report, lines: &[String], replies: &[&str]) -> Vec<u64> {
    let service = Service::new(ServiceConfig::default());
    let mut handle_ns = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        trace::set_request(i as u64);
        let t = trace::now_ns();
        let reply = span("popmond.state.handle_line", || service.handle_line(line));
        handle_ns.push(trace::now_ns() - t);
        if reply.text != replies[i] {
            report.fail(format!(
                "request {i}: a fresh service answers differently: {line} -> {} vs {}",
                reply.text, replies[i]
            ));
        }
    }
    handle_ns
}

/// [`service_replay`], then a replay through the layers ([`Shadow`]) whose
/// answers must equal the daemon's.
pub fn replay(report: &mut Report, lines: &[String], replies: &[&str]) -> Replayed {
    let handle_ns = service_replay(report, lines, replies);
    let mut shadow = Shadow::default();
    for (i, line) in lines.iter().enumerate() {
        trace::set_request(i as u64);
        if let Err(e) = shadow.apply(line).check(replies[i]) {
            report.fail(format!("request {i}: layer replay differs: {e}: {line}"));
        }
    }
    trace::set_request(0);
    let (solves, coalesced) = shadow.memo_counts();
    Replayed {
        handle_ns,
        solves,
        coalesced,
    }
}

/// Sets the per-layer metrics the replays measured.
pub fn request_layers(
    report: &mut Report,
    totals: &BTreeMap<&'static str, Totals>,
    lines: &[String],
    replies: &[&str],
    r: &Replayed,
) {
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_us());
    let mut q = Quality::default();
    for (i, line) in lines.iter().enumerate() {
        requests::assess(i, line, replies[i], 0.0, &mut q, &mut Report::default());
    }
    let work_per_ms: Vec<f64> = q
        .degraded_work
        .iter()
        .map(|&(w, i)| w / (r.handle_ns[i] as f64 / 1e6))
        .collect();
    let scenarios: f64 = lines
        .iter()
        .filter_map(|l| json::parse(l).ok()?.get("scenarios")?.as_f64())
        .sum();
    let resilience_s = totals
        .get("placement.resilience")
        .map_or(0.0, |t| t.total_ns as f64 / 1e9);
    report.layer("popmond.protocol.parse_us", mean("popmond.protocol.parse"));
    report.layer("popmond.state.handle_us", mean("popmond.state.handle_line"));
    report.layer(
        "popmond.state.memo_hit_ratio",
        r.coalesced as f64 / (r.solves + r.coalesced).max(1) as f64,
    );
    report.layer(
        "popmond.json.response_bytes",
        q.reply_bytes as f64 / q.replies.max(1) as f64,
    );
    report.layer("popmond.server.shed", q.shed as f64);
    report.layer("placement.delta.mutate_us", mean("placement.delta.mutate"));
    report.layer(
        "placement.delta.resolve_us",
        mean("placement.delta.resolve"),
    );
    report.layer(
        "placement.resilience.scenarios_per_s",
        if resilience_s > 0.0 {
            scenarios / resilience_s
        } else {
            0.0
        },
    );
    report.layer("placement.instance_us", mean("placement.instance"));
    report.layer("popgen.pop_us", mean("popgen.pop"));
    report.layer("popgen.traffic_us", mean("popgen.traffic"));
    report.layer("popgen.scenarios_us", mean("popgen.scenarios"));
    report.line(format!(
        "trace: memo_hit_ratio = {} coalesced / {} solve requests; the stream's {} degraded \
         answers spent {:.0} work units per ms of handle_line (mean) and at most {:.2}x their budget",
        r.coalesced,
        r.solves + r.coalesced,
        work_per_ms.len(),
        stats::mean(&work_per_ms),
        q.overshoot.iter().cloned().fold(0.0, f64::max)
    ));
}

/// The anytime defects on `paper_15`, measured in-process: a 1 ms
/// deadline solve and a 20000-unit budget solve at k = 0.9. Reports the
/// larger `work_spent / budget` as `placement.anytime.overshoot` and the
/// work rate of the budget solve as `placement.anytime.work_per_ms` (popmond
/// maps a deadline onto 2000 units per ms).
pub fn anytime_probe(report: &mut Report, seed: u64) {
    let service = Service::new(ServiceConfig::default());
    let load = format!(r#"{{"op":"load_spec","id":"p","spec":"paper_15","seed":{seed}}}"#);
    let lines = [
        load.as_str(),
        r#"{"op":"solve","id":"p","mode":"ppm","method":"exact","k":0.9,"deadline_ms":1}"#,
        r#"{"op":"solve","id":"p","mode":"ppm","method":"exact","k":0.9,"budget":20000}"#,
    ];
    let mut q = Quality::default();
    let mut rate = 0.0;
    for (i, line) in lines.iter().enumerate() {
        let t = trace::now_ns();
        let reply = service.handle_line(line).text;
        let ms = (trace::now_ns() - t) as f64 / 1e6;
        let before = q.degraded_work.len();
        requests::assess(i, line, &reply, ms, &mut q, report);
        report.attempted += 1;
        if let Some(&(work, _)) = q.degraded_work.get(before) {
            rate = work / ms;
            report.line(format!(
                "anytime probe: {line} -> work_spent {work:.0} in {ms:.1} ms ({rate:.0} units/ms)"
            ));
        }
    }
    if let Some(x) = q.overshoot.iter().cloned().reduce(f64::max) {
        report.layer("placement.anytime.overshoot", x);
    }
    report.layer("placement.anytime.work_per_ms", rate);
    report.line(format!(
        "anytime probe: deadline_miss_rate {:.2} ({} of {}), max overshoot {:.2}x",
        q.deadline_miss_rate(),
        q.deadline_missed,
        q.deadline_n,
        q.overshoot.iter().cloned().fold(0.0, f64::max)
    ));
}
