//! `whatif_warm`: an operator's closed-loop what-if session on one
//! resident `paper_15` instance.
//!
//! One connection sends the next request when the last reply arrives:
//! link failures, restores and demand scalings, each with an exact re-solve
//! at k = 0.3 through the instance's warm `DeltaInstance` chain; anytime
//! solves with `deadline_ms` 1–2 across k; and 1000-scenario
//! `score_ensemble` campaigns. Every what-if bumps the instance version, so
//! popmond's memo never hits and the warm repair, dual simplex and
//! branch-and-bound dominate; transport is negligible. The priming exact
//! solve belongs to set-up.

use std::sync::Arc;
use std::time::Instant;

use placement::instance::PpmInstance;
use popgen::{PopSpec, TrafficSpec};
use popmond::json::{self, Value};
use popmond::server::{ServerConfig, ServerHandle};
use popmond::workload::Rng;
use popmond::{Service, ServiceConfig};

use crate::net::Closed;
use crate::report::Report;
use crate::requests::{self, Quality};
use crate::stats::{self, percentile};
use crate::trace::{self, span};
use crate::{probes, replay, Config};

/// Set-ups per run; the median is reported.
const SETUPS: usize = 3;
/// Links of the `paper_15` POP and traffics of its matrix.
const LINKS: usize = 71;
const TRAFFICS: usize = 1980;
/// At most this many links are down at once.
const MAX_DOWN: usize = 3;

fn load_lines(seed: u64) -> [String; 2] {
    [
        format!(r#"{{"op":"load_spec","id":"w","spec":"paper_15","seed":{seed},"routed":false}}"#),
        r#"{"op":"solve","id":"w","mode":"ppm","method":"exact","k":0.3}"#.to_string(),
    ]
}

/// The session's request stream. It opens by failing a link of the
/// current k = 0.3 optimum and restoring it — the what-if whose re-solve is
/// slowest (seconds rather than tenths) — then repeats a cycle of fail,
/// scale, deadline solve, restore, scale and ensemble campaign. The cycle
/// fails links outside the current optimum, so every run meets the slow
/// case exactly once and runs stay comparable.
struct Script {
    rng: Rng,
    down: Vec<usize>,
    step: usize,
    /// Links of the latest k = 0.3 answer.
    optimum: Vec<usize>,
}

const RESOLVE: &str = r#""resolve":{"mode":"ppm","method":"exact","k":0.3}"#;

impl Script {
    fn new(seed: u64) -> Self {
        Script {
            rng: Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x0077_6a71),
            down: Vec::new(),
            step: 0,
            optimum: Vec::new(),
        }
    }

    /// Notes the k = 0.3 placement a reply carries, if any.
    fn observe(&mut self, reply: &str) {
        let Ok(v) = json::parse(reply) else { return };
        let obj = v.get("resolve").unwrap_or(&v);
        if obj.get("k").and_then(Value::as_f64) != Some(0.3) {
            return;
        }
        if let Some(p) = obj.get("placement").and_then(Value::as_arr) {
            self.optimum = p
                .iter()
                .filter_map(|x| x.as_u64().map(|e| e as usize))
                .collect();
        }
    }

    fn fail(&mut self, e: usize) -> String {
        self.down.push(e);
        format!(r#"{{"op":"whatif","id":"w","action":"fail_link","link":{e},{RESOLVE}}}"#)
    }

    fn restore(&mut self, i: usize) -> String {
        let e = self.down.swap_remove(i);
        format!(r#"{{"op":"whatif","id":"w","action":"restore_link","link":{e},{RESOLVE}}}"#)
    }

    fn next_line(&mut self) -> String {
        let step = self.step;
        self.step += 1;
        if step == 0 && !self.optimum.is_empty() {
            let e = self.optimum[self.rng.below(self.optimum.len())];
            return self.fail(e);
        }
        if step == 1 && !self.down.is_empty() {
            return self.restore(0);
        }
        let rng = &mut self.rng;
        match step % 6 {
            0 | 3
                if (step.is_multiple_of(6) && self.down.len() < MAX_DOWN)
                    || self.down.is_empty() =>
            {
                let e = loop {
                    let e = rng.below(LINKS);
                    if !self.down.contains(&e) && !self.optimum.contains(&e) {
                        break e;
                    }
                };
                self.fail(e)
            }
            0 | 3 => {
                let i = rng.below(self.down.len());
                self.restore(i)
            }
            1 | 4 => {
                let t = rng.below(TRAFFICS);
                let factor = [0.5, 0.75, 1.25, 1.5, 2.0][rng.below(5)];
                format!(
                    r#"{{"op":"whatif","id":"w","action":"scale_demand","traffic":{t},"factor":{factor},{RESOLVE}}}"#
                )
            }
            2 => {
                let k = [0.5, 0.6, 0.7, 0.8, 0.9][rng.below(5)];
                let d = 1 + rng.below(2);
                format!(
                    r#"{{"op":"solve","id":"w","mode":"ppm","method":"exact","k":{k},"deadline_ms":{d}}}"#
                )
            }
            _ => {
                let mut placed: Vec<usize> =
                    (0..4 + rng.below(5)).map(|_| rng.below(LINKS)).collect();
                placed.sort_unstable();
                placed.dedup();
                let placed = placed
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                let seed = rng.below(1 << 20);
                format!(
                    r#"{{"op":"score_ensemble","id":"w","failure":"srlg groups=8 group_rate=0.05 link_rate=0.01","scenarios":1000,"seed":{seed},"placement":[{placed}],"page_size":1}}"#
                )
            }
        }
    }
}

struct Session {
    handle: ServerHandle,
    client: Closed,
    /// Set-up lines and their replies.
    setup: Vec<(String, String)>,
}

fn setup(seed: u64) -> Result<Session, String> {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let config = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    };
    let handle = popmond::spawn("127.0.0.1:0", service, config).map_err(|e| e.to_string())?;
    let mut client = Closed::connect(handle.addr())?;
    let mut done = Vec::new();
    for line in load_lines(seed) {
        let reply = client.call(&line)?;
        if !reply.starts_with(r#"{"ok":true"#) {
            return Err(format!("set-up failed: {line} -> {reply}"));
        }
        done.push((line, reply));
    }
    Ok(Session {
        handle,
        client,
        setup: done,
    })
}

/// One closed-loop pass: set-up `setups` times (keeping the last), then
/// requests until `seconds` have passed.
struct Pass {
    setup_s: Vec<f64>,
    lines: Vec<String>,
    replies: Vec<String>,
    latency_ms: Vec<f64>,
    elapsed_s: f64,
    session: Session,
}

fn pass(cfg: &Config, setups: usize) -> Result<Pass, String> {
    let mut setup_s = Vec::new();
    let mut session = None;
    for _ in 0..setups {
        if let Some(old) = session.take() {
            let Session { handle, client, .. } = old;
            drop(client);
            handle.shutdown();
        }
        let t = Instant::now();
        session = Some(setup(cfg.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut session = session.ok_or("no set-up")?;
    let mut script = Script::new(cfg.seed);
    for (_, reply) in &session.setup {
        script.observe(reply);
    }
    let (mut lines, mut replies, mut latency_ms) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let base = session.setup.len() as u64;
    while start.elapsed().as_secs_f64() < cfg.seconds as f64 {
        let line = script.next_line();
        trace::set_request(base + lines.len() as u64);
        let t = Instant::now();
        let reply = span("popmond.request", || session.client.call(&line))?;
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        script.observe(&reply);
        lines.push(line);
        replies.push(reply);
    }
    Ok(Pass {
        setup_s,
        lines,
        replies,
        latency_ms,
        elapsed_s: start.elapsed().as_secs_f64(),
        session,
    })
}

fn close(session: Session) {
    let Session { handle, client, .. } = session;
    drop(client);
    handle.shutdown();
}

/// The full transcript (set-up, then the session), as lines and replies.
fn transcript(p: &Pass) -> (Vec<String>, Vec<String>) {
    let lines = p
        .session
        .setup
        .iter()
        .map(|(l, _)| l.clone())
        .chain(p.lines.iter().cloned());
    let replies = p
        .session
        .setup
        .iter()
        .map(|(_, r)| r.clone())
        .chain(p.replies.iter().cloned());
    (lines.collect(), replies.collect())
}

/// Runs the workload (see the module docs).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let p = pass(cfg, SETUPS)?;
    let peak_rss = stats::peak_rss_mb();
    let throughput = p.lines.len() as f64 / p.elapsed_s;
    summarize(&mut report, &p, peak_rss);
    let (lines, replies) = transcript(&p);
    close(p.session);
    if cfg.trace {
        traced(cfg, &mut report, throughput)?;
    } else {
        let replies: Vec<&str> = replies.iter().map(String::as_str).collect();
        replay::service_replay(&mut report, &lines, &replies);
    }
    Ok(report)
}

fn summarize(report: &mut Report, p: &Pass, peak_rss: f64) {
    let mut q = Quality::default();
    for (i, ((line, reply), lat)) in p
        .lines
        .iter()
        .zip(&p.replies)
        .zip(&p.latency_ms)
        .enumerate()
    {
        requests::assess(i, line, reply, *lat, &mut q, report);
    }
    for (i, (line, reply)) in p.session.setup.iter().enumerate() {
        requests::assess(i, line, reply, 0.0, &mut Quality::default(), report);
    }
    report.attempted = (p.lines.len() + p.session.setup.len()) as u64;
    let tail = stats::tail(&p.latency_ms, 75);
    report.set("setup_s", stats::median(&p.setup_s));
    report.set("throughput_rps", p.lines.len() as f64 / p.elapsed_s);
    report.set("proven_fraction", q.proven_fraction());
    report.set("peak_rss_mb", peak_rss);
    report.line(
        "whatif_warm: closed loop, 1 connection, 2 permits, paper_15 (71 links, 1980 traffics)",
    );
    let mut kinds: Vec<(&str, Vec<f64>)> = vec![(
        "fail optimum link",
        p.latency_ms.iter().take(1).copied().collect(),
    )];
    for (kind, key) in [
        ("fail/restore + re-solve", "_link"),
        ("scale + re-solve", "scale_demand"),
        ("deadline solve", "deadline_ms"),
        ("score_ensemble 1000", "score_ensemble"),
    ] {
        let lat = p
            .lines
            .iter()
            .zip(&p.latency_ms)
            .skip(1)
            .filter(|(l, _)| l.contains(key));
        kinds.push((kind, lat.map(|(_, &x)| x).collect()));
    }
    for (kind, lat) in kinds {
        report.line(format!(
            "  {kind:<24} n {:<4} p50 {:>9.3} ms  max {:>9.3} ms",
            lat.len(),
            percentile(&lat, 50.0),
            lat.iter().cloned().fold(0.0, f64::max)
        ));
    }
    report.line(format!(
        "requests {} in {:.3} s; p50 {:.3} ms, p{} {:.3} ms over {} requests",
        p.lines.len(),
        p.elapsed_s,
        percentile(&p.latency_ms, 50.0),
        tail.pct,
        tail.value,
        tail.n
    ));
    report.line(format!(
        "error_rate {:.6} ({} of {}), deadline_miss_rate {:.4} ({} of {} deadline_ms requests), \
         proven_fraction {:.4} ({} of {} exact answers), devices_unproven {}",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        q.deadline_miss_rate(),
        q.deadline_missed,
        q.deadline_n,
        q.proven_fraction(),
        q.proven_n,
        q.exact_n,
        q.devices_unproven
    ));
    report.line(format!(
        "setup_s median of {} set-ups: {:?}",
        p.setup_s.len(),
        p.setup_s
    ));
    report.layer(
        "placement.anytime.deadline_miss_rate",
        q.deadline_miss_rate(),
    );
    report.layer("placement.devices_unproven", q.devices_unproven);
}

/// The traced run: the same session again with request spans on, the
/// in-process replays, an LP probe on the instance, and the anytime probe.
fn traced(cfg: &Config, report: &mut Report, untraced_rps: f64) -> Result<(), String> {
    trace::set_enabled(true);
    let p = pass(cfg, 1)?;
    let traced_rps = p.lines.len() as f64 / p.elapsed_s;
    let (lines, replies) = transcript(&p);
    let tcp_ms = p.latency_ms;
    close(p.session);
    let replies: Vec<&str> = replies.iter().map(String::as_str).collect();
    let replayed = replay::replay(report, &lines, &replies);
    let pop = PopSpec::paper_15().build();
    let inst =
        PpmInstance::from_traffic(&pop.graph, &TrafficSpec::default().generate(&pop, cfg.seed));
    probes::lp(report, &[(&inst, 0.3)]);
    replay::anytime_probe(report, cfg.seed);
    trace::set_enabled(false);

    let spans = trace::take();
    let totals = trace::totals(&spans);
    replay::request_layers(report, &totals, &lines, &replies, &replayed);
    let handle = &replayed.handle_ns[replayed.handle_ns.len() - tcp_ms.len()..];
    report.layer(
        "popmond.server.wait_us",
        stats::mean(&tcp_ms.iter().map(|x| x * 1e3).collect::<Vec<_>>())
            - stats::mean(&handle.iter().map(|&x| x as f64 / 1e3).collect::<Vec<_>>()),
    );
    report.layer("trace.overhead", untraced_rps / traced_rps.max(1e-9) - 1.0);
    report.layer("trace.spans", spans.len() as f64);
    report.line(format!(
        "trace: throughput untraced {untraced_rps:.3}/s, traced {traced_rps:.3}/s"
    ));
    report.spans = spans;
    Ok(())
}
