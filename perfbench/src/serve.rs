//! `serve_small`: open-loop popmond serving.
//!
//! Seeded `popmond::workload::Session` streams on `small`-preset instances
//! (a quarter of them routed) arrive as a Poisson process at each rung of a
//! fixed ladder of offered rates, over two connections to an in-process
//! daemon with two permits, from one load thread. A fifth of the exact
//! solves carry a `deadline_ms` an idle server meets. Each request is timed
//! from when it was due, so a stall also delays the requests queued behind
//! it. Solver work per request is sub-millisecond, so popmond's parse,
//! dispatch, memo and serialization dominate. The workload's gated figure
//! is the daemon's capacity: the completion rate at the top rung, where
//! the offered rate exceeds it.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use placement::delta::DeltaInstance;
use popmond::json;
use popmond::server::{ServerConfig, ServerHandle};
use popmond::workload::{Rng, Session, SessionSpec};
use popmond::{Service, ServiceConfig};

use placement::instance::PpmInstance;
use popgen::{PopSpec, TrafficSpec};

use crate::net::{self, Observed, Planned};
use crate::report::Report;
use crate::requests::{self, Quality};
use crate::stats::{self, percentile};
use crate::{probes, replay, trace, Config};

/// Live sessions, each on its own resident instance.
const SESSIONS: usize = 8;
/// Client connections; session `i` always uses connection `i % CONNS`, so
/// each instance sees its requests in order.
const CONNS: usize = 2;
/// Offered rates, requests per second, lowest first.
const LADDER: [f64; 6] = [2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0, 14_000.0];
/// The rung whose latencies the table reports as the nominal ones.
const NOMINAL: usize = 0;
/// The ladder is climbed this many times, in short blocks, so each rung
/// samples the whole run rather than one stretch of it.
const CYCLES: usize = 3;
/// Each block is cut into this many equal windows by due time; a rung's
/// latency percentiles and completion rate are medians over its windows, so
/// a stall of the host moves a few windows, not the figure.
const WINDOWS: usize = 8;
/// A rung passes when its p99 latency is at most this.
const LIMIT_MS: f64 = 5.0;
/// A rung's backlog grows when its least-squares trend exceeds this share
/// of the offered rate.
const GROWTH_SHARE: f64 = 0.05;
/// Deadline carried by one exact solve in five.
const DEADLINE_MS: u64 = 5;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 15;
/// Requests per session, its load included.
const LIFETIME: usize = 400;

/// The live sessions, one per slot. A session retires after `LIFETIME`
/// requests: its instance is evicted and the slot's next generation loads a
/// fresh one, in-stream. The generator's instances random-walk (flows are
/// added and removed), so capping a session's age keeps the request mix
/// the same from the first rung to the last.
struct Slots {
    seed: u64,
    sessions: Vec<Session>,
    generation: Vec<u64>,
    age: Vec<usize>,
}

impl Slots {
    fn new(seed: u64) -> Self {
        Slots {
            seed,
            sessions: (0..SESSIONS).map(|i| session(seed, i, 0)).collect(),
            generation: vec![0; SESSIONS],
            age: vec![0; SESSIONS],
        }
    }

    /// The slots' first load lines; the sessions are told their instances'
    /// sizes, so later lines stay in range.
    fn loads(&mut self) -> Vec<String> {
        (0..SESSIONS).map(|i| self.start(i)).collect()
    }

    fn start(&mut self, i: usize) -> String {
        let line = self.sessions[i].next_line();
        let (links, traffics) = dims(instance_seed(self.seed, i, self.generation[i]), routed(i));
        self.sessions[i].observe_load(links, traffics);
        self.age[i] = 1;
        line
    }

    /// The next request lines of slot `i` (two when a session retires: the
    /// eviction and the next generation's load).
    fn next(&mut self, i: usize) -> Vec<String> {
        if self.age[i] < LIFETIME {
            self.age[i] += 1;
            return vec![self.sessions[i].next_line()];
        }
        let evict = format!(r#"{{"op":"evict","id":"{}"}}"#, self.sessions[i].id());
        self.generation[i] += 1;
        self.sessions[i] = session(self.seed, i, self.generation[i]);
        vec![evict, self.start(i)]
    }
}

fn routed(slot: usize) -> bool {
    slot % 4 == 3
}

fn instance_seed(seed: u64, slot: usize, generation: u64) -> u64 {
    seed.wrapping_mul(1 << 20)
        .wrapping_add(generation * SESSIONS as u64 + slot as u64)
}

fn session(seed: u64, slot: usize, generation: u64) -> Session {
    let instance = instance_seed(seed, slot, generation);
    let mut mix = instance.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    mix ^= mix >> 29;
    Session::new(SessionSpec {
        id: format!("s{slot}g{generation}"),
        spec: "small".to_string(),
        instance_seed: instance,
        request_seed: mix | 1,
        routed: routed(slot),
    })
}

/// Links and traffics of a `small` instance, as popmond's load reports them.
fn dims(seed: u64, routed: bool) -> (usize, usize) {
    let pop = PopSpec::small().build();
    let ts = TrafficSpec::default().generate(&pop, seed);
    let traffics = if routed {
        DeltaInstance::from_traffic(&pop.graph, &ts).traffic_count()
    } else {
        PpmInstance::from_traffic(&pop.graph, &ts).traffics.len()
    };
    (pop.graph.edge_count(), traffics)
}

struct Server {
    handle: ServerHandle,
    streams: Vec<TcpStream>,
    slots: Slots,
    /// The load lines and their replies, in slot order.
    loads: Vec<(String, String)>,
}

/// Starts a daemon, connects, and loads every slot's first instance.
fn setup(seed: u64) -> Result<Server, String> {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let config = ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    };
    let handle = popmond::spawn("127.0.0.1:0", service, config).map_err(|e| e.to_string())?;
    let streams = net::connect(handle.addr(), CONNS)?;
    let mut slots = Slots::new(seed);
    let plan: Vec<Planned> = slots
        .loads()
        .into_iter()
        .enumerate()
        .map(|(i, line)| Planned {
            conn: i % CONNS,
            due: 0,
            line,
        })
        .collect();
    let obs = net::open_loop(&streams, &plan, 0)?;
    let loads: Vec<(String, String)> = plan
        .into_iter()
        .zip(obs)
        .map(|(p, o)| (p.line, o.reply))
        .collect();
    Ok(Server {
        handle,
        streams,
        slots,
        loads,
    })
}

/// The request schedule: `CYCLES` climbs of the ladder, one block per rung
/// and climb, in sending order, each block tagged with its rung.
fn plan(seed: u64, slots: &mut Slots, seconds: u64) -> Vec<(usize, Vec<Planned>)> {
    let mut rng = Rng::new(seed ^ 0x005e_ed0f_a771_7a15);
    let block_ns = seconds as f64 * 1e9 / (CYCLES * LADDER.len()) as f64;
    let mut blocks = Vec::new();
    for _ in 0..CYCLES {
        for (r, &rate) in LADDER.iter().enumerate() {
            let mut out = Vec::new();
            let mut t = 0.0f64;
            loop {
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                t += -(1.0 - u).ln() / rate * 1e9;
                if t >= block_ns {
                    break;
                }
                let s = rng.below(SESSIONS);
                for mut line in slots.next(s) {
                    if line.starts_with(r#"{"op":"solve""#)
                        && line.contains(r#""method":"exact""#)
                        && rng.below(5) == 0
                    {
                        line.pop();
                        line.push_str(&format!(r#","deadline_ms":{DEADLINE_MS}}}"#));
                    }
                    out.push(Planned {
                        conn: s % CONNS,
                        due: t as u64,
                        line,
                    });
                }
            }
            blocks.push((r, out));
        }
    }
    blocks
}

/// One block of the ladder as measured.
struct Block {
    rung: usize,
    obs: Vec<Observed>,
}

/// One rung's blocks.
struct Rung<'a> {
    rate: f64,
    blocks: Vec<&'a [Observed]>,
}

/// The schedule window `[first due, last due]` of a block, ns.
fn block_span(obs: &[Observed]) -> (u64, u64) {
    let first = obs.iter().map(|o| o.due).min().unwrap_or(0);
    let last = obs.iter().map(|o| o.due).max().unwrap_or(first);
    (first, last.max(first + 1))
}

fn rung(blocks: &[Block], r: usize) -> Rung<'_> {
    Rung {
        rate: LADDER[r],
        blocks: blocks
            .iter()
            .filter(|b| b.rung == r)
            .map(|b| b.obs.as_slice())
            .collect(),
    }
}

impl Rung<'_> {
    fn obs(&self) -> impl Iterator<Item = &Observed> {
        self.blocks.iter().flat_map(|b| b.iter())
    }

    /// `(block, start, end)` of every window of every block.
    fn windows(&self) -> Vec<(&[Observed], u64, u64)> {
        let mut out = Vec::new();
        for b in &self.blocks {
            let (a, z) = block_span(b);
            let w = (z - a) / WINDOWS as u64;
            for i in 0..WINDOWS as u64 {
                out.push((*b, a + w * i, a + w * (i + 1)));
            }
        }
        out
    }

    /// The median over windows of each window's latency percentile `pct`
    /// (requests grouped by due time), in ms.
    fn latency(&self, pct: f64) -> f64 {
        let per: Vec<f64> = self
            .windows()
            .into_iter()
            .map(|(b, a, z)| {
                let lat: Vec<f64> = b
                    .iter()
                    .filter(|o| o.due >= a && o.due < z)
                    .map(|o| (o.recv - o.due) as f64 / 1e6)
                    .collect();
                percentile(&lat, pct)
            })
            .collect();
        stats::median(&per)
    }

    /// The median over windows of replies received per second.
    fn completion_rate(&self) -> f64 {
        let per: Vec<f64> = self
            .windows()
            .into_iter()
            .map(|(b, a, z)| {
                let n = b.iter().filter(|o| o.recv >= a && o.recv < z).count();
                n as f64 / ((z - a) as f64 / 1e9)
            })
            .collect();
        stats::median(&per)
    }

    /// The median over blocks of the trend of requests outstanding, in
    /// requests per second (least squares over 50 sample times per block).
    fn backlog_trend(&self) -> f64 {
        let per: Vec<f64> = self.blocks.iter().map(|b| backlog_trend(b)).collect();
        stats::median(&per)
    }
}

/// Trend of the requests outstanding over a block's schedule window, in
/// requests per second (least squares over 50 sample times).
fn backlog_trend(obs: &[Observed]) -> f64 {
    let (start, end) = block_span(obs);
    let mut sent: Vec<u64> = obs.iter().map(|o| o.sent).collect();
    let mut recv: Vec<u64> = obs.iter().map(|o| o.recv).collect();
    sent.sort_unstable();
    recv.sort_unstable();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for i in 1..=50u64 {
        let t = start + (end - start) * i / 50;
        let outstanding =
            sent.partition_point(|&s| s <= t) as f64 - recv.partition_point(|&r| r <= t) as f64;
        xs.push((t - start) as f64 / 1e9);
        ys.push(outstanding);
    }
    stats::slope(&xs, &ys)
}

/// One climb-through of the whole schedule on a fresh daemon.
struct Ladder {
    /// Seconds each set-up took.
    setup_s: Vec<f64>,
    /// The blocks, in sending order.
    blocks: Vec<Block>,
    /// The first load lines and their replies.
    loads: Vec<(String, String)>,
}

/// Sets up `setups` times, keeping the last daemon, and runs the schedule.
fn ladder(cfg: &Config, setups: usize) -> Result<Ladder, String> {
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..setups {
        if let Some(old) = server.take() {
            let Server {
                handle, streams, ..
            } = old;
            drop(streams);
            handle.shutdown();
        }
        let t = Instant::now();
        server = Some(setup(cfg.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut server = server.ok_or("no set-up")?;
    let mut blocks = Vec::new();
    let mut base = server.loads.len() as u64;
    for (r, p) in plan(cfg.seed, &mut server.slots, cfg.seconds) {
        let obs = net::open_loop(&server.streams, &p, base)?;
        base += p.len() as u64;
        blocks.push(Block { rung: r, obs });
    }
    let Server {
        handle,
        streams,
        loads,
        ..
    } = server;
    drop(streams);
    handle.shutdown();
    Ok(Ladder {
        setup_s,
        blocks,
        loads,
    })
}

/// Runs the workload (see the module docs).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let Ladder {
        setup_s,
        blocks,
        loads,
    } = ladder(cfg, SETUPS)?;
    let peak_rss = stats::peak_rss_mb();
    let lines = request_lines(cfg);
    summarize(&mut report, &setup_s, &blocks, &loads, &lines, peak_rss);
    if cfg.trace {
        traced(cfg, &mut report, &blocks)?;
    } else {
        replay::service_replay(&mut report, &lines, &replies(&loads, &blocks));
    }
    Ok(report)
}

/// The daemon's replies in send order: the loads', then every block's.
fn replies<'a>(loads: &'a [(String, String)], blocks: &'a [Block]) -> Vec<&'a str> {
    let loads = loads.iter().map(|(_, r)| r.as_str());
    loads
        .chain(
            blocks
                .iter()
                .flat_map(|b| b.obs.iter().map(|o| o.reply.as_str())),
        )
        .collect()
}

/// The request lines in send order: the loads, then every rung's plan.
fn request_lines(cfg: &Config) -> Vec<String> {
    let mut slots = Slots::new(cfg.seed);
    let mut out = slots.loads();
    for (_, p) in plan(cfg.seed, &mut slots, cfg.seconds) {
        out.extend(p.into_iter().map(|p| p.line));
    }
    out
}

fn summarize(
    report: &mut Report,
    setup_s: &[f64],
    blocks: &[Block],
    loads: &[(String, String)],
    lines: &[String],
    peak_rss: f64,
) {
    let mut per_rung = vec![Quality::default(); LADDER.len()];
    let mut index = loads.len();
    for b in blocks {
        for o in &b.obs {
            let lat = (o.recv - o.due) as f64 / 1e6;
            requests::assess(
                index,
                &lines[index],
                &o.reply,
                lat,
                &mut per_rung[b.rung],
                report,
            );
            index += 1;
        }
    }
    for (i, (line, reply)) in loads.iter().enumerate() {
        requests::assess(i, line, reply, 0.0, &mut Quality::default(), report);
    }
    report.attempted = index as u64;
    report.line(format!(
        "serve_small: {SESSIONS} small instances at a time, {CONNS} connections, 2 permits, \
         Poisson arrivals, {CYCLES} climbs of the ladder; p99 limit {LIMIT_MS} ms"
    ));
    report.line(
        "rung  offered/s  done/s   n      p50_ms   p90_ms   p99_ms   late_p99_ms late_max_ms backlog/s shed miss  pass",
    );
    let mut all = Quality::default();
    let mut max_rate = 0.0f64;
    for (r, q) in per_rung.iter().enumerate() {
        let rung = rung(blocks, r);
        let late: Vec<f64> = rung.obs().map(|o| (o.sent - o.due) as f64 / 1e6).collect();
        let trend = rung.backlog_trend();
        let p99 = rung.latency(99.0);
        let pass = p99 <= LIMIT_MS && trend <= GROWTH_SHARE * rung.rate && q.shed == 0;
        if pass {
            max_rate = max_rate.max(rung.rate);
        }
        report.line(format!(
            "{r:<5} {:<10} {:<8.0} {:<6} {:<8.3} {:<8.3} {:<8.3} {:<11.3} {:<11.3} {:<9.0} {:<4} {:<5.3} {}",
            rung.rate,
            rung.completion_rate(),
            late.len(),
            rung.latency(50.0),
            rung.latency(90.0),
            p99,
            percentile(&late, 99.0),
            late.iter().cloned().fold(0.0, f64::max),
            trend,
            q.shed,
            q.deadline_miss_rate(),
            if pass { "yes" } else { "no" }
        ));
        all.add(q);
    }
    let nominal = rung(blocks, NOMINAL);
    let top = rung(blocks, LADDER.len() - 1);
    report.set("setup_s", stats::median(setup_s));
    report.set("throughput_rps", top.completion_rate());
    report.set("proven_fraction", all.proven_fraction());
    report.set("peak_rss_mb", peak_rss);
    report.line(format!(
        "nominal rung {} req/s: p50 {:.3} ms, p99 {:.3} ms ({} requests, about {} per \
         window; each figure is the median over the rung's {} windows); throughput_rps = \
         completion rate at the top rung",
        LADDER[NOMINAL],
        nominal.latency(50.0),
        nominal.latency(99.0),
        nominal.obs().count(),
        nominal.obs().count() / (WINDOWS * CYCLES),
        WINDOWS * CYCLES
    ));
    report.line(format!(
        "max_rate_rps {max_rate} (highest rung with p99 <= {LIMIT_MS} ms, backlog trend <= \
         {:.0}% of the offered rate, no shed)",
        GROWTH_SHARE * 100.0
    ));
    report.line(format!(
        "error_rate {:.6} ({} of {}), deadline_miss_rate {:.4} ({} of {} deadline_ms requests), \
         proven_fraction {:.4} ({} of {} exact answers), devices_unproven {}",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        all.deadline_miss_rate(),
        all.deadline_missed,
        all.deadline_n,
        all.proven_fraction(),
        all.proven_n,
        all.exact_n,
        all.devices_unproven
    ));
    report.line(format!(
        "setup_s median of {} set-ups: {:?}",
        setup_s.len(),
        setup_s
    ));
    report.layer(
        "placement.anytime.deadline_miss_rate",
        all.deadline_miss_rate(),
    );
    report.layer("placement.devices_unproven", all.devices_unproven);
}

/// The traced run: the same ladder again with client spans on, then the
/// same stream replayed in-process (see [`crate::replay`]).
fn traced(cfg: &Config, report: &mut Report, untraced: &[Block]) -> Result<(), String> {
    trace::set_enabled(true);
    let Ladder { blocks, loads, .. } = ladder(cfg, 1)?;
    let lines = request_lines(cfg);
    let replies = replies(&loads, &blocks);
    let replayed = replay::replay(report, &lines, &replies);
    let instances: Vec<PpmInstance> = loads
        .iter()
        .filter_map(|(l, _)| {
            let seed = json::parse(l).ok()?.get("seed")?.as_u64()?;
            let pop = PopSpec::small().build();
            let ts = TrafficSpec::default().generate(&pop, seed);
            Some(PpmInstance::from_traffic(&pop.graph, &ts))
        })
        .collect();
    let cases: Vec<_> = instances.iter().map(|i| (i, 0.8)).collect();
    probes::lp(report, &cases);
    replay::anytime_probe(report, cfg.seed);
    trace::set_enabled(false);

    let spans = trace::take();
    let totals = trace::totals(&spans);
    replay::request_layers(report, &totals, &lines, &replies, &replayed);
    // Transport + queueing: the nominal rung's socket latency minus the
    // in-process handling time of the same requests.
    let (mut tcp_us, mut handle_us) = (Vec::new(), Vec::new());
    let mut index = loads.len();
    for b in &blocks {
        for o in &b.obs {
            if b.rung == NOMINAL {
                tcp_us.push((o.recv - o.sent) as f64 / 1e3);
                handle_us.push(replayed.handle_ns[index] as f64 / 1e3);
            }
            index += 1;
        }
    }
    let (tcp_us, handle_us) = (stats::mean(&tcp_us), stats::mean(&handle_us));
    report.layer("popmond.server.wait_us", tcp_us - handle_us);
    let untraced_rate = rung(untraced, LADDER.len() - 1).completion_rate();
    let traced_rate = rung(&blocks, LADDER.len() - 1).completion_rate();
    report.layer(
        "trace.overhead",
        untraced_rate / traced_rate.max(1e-9) - 1.0,
    );
    report.layer("trace.spans", spans.len() as f64);
    report.line(format!(
        "trace: wait_us = {tcp_us:.1} us socket latency - {handle_us:.1} us handle_line at the \
         nominal rung; top-rung completion rate untraced {untraced_rate:.0}/s, traced \
         {traced_rate:.0}/s"
    ));
    report.spans = spans;
    Ok(())
}
