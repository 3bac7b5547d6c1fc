//! The traced in-process replay of a popmond request stream.
//!
//! [`Shadow`] answers the same request lines as the service by calling the
//! layers directly — `popgen` to build instances, `placement`'s
//! `DeltaInstance` chain to mutate and solve, `placement::resilience` to
//! score ensembles — with a span around each call, so the traced run can
//! attribute a request's time to the layers below `popmond`. It keeps the
//! service's per-version solve memo (same keys, same invalidation), so it
//! drives each warm chain through exactly the calls the service made, and
//! [`Answer::check`] compares its answer with the service's reply field by
//! field.

use std::collections::HashMap;
use std::sync::Arc;

use placement::delta::DeltaInstance;
use placement::instance::PpmInstance;
use placement::resilience::score_ensemble;
use placement::solve::{SolveOutcome, SolveRequest};
use popgen::{DynamicSpec, FailureModel, FailureSpec, Pop, PopSpec, TrafficSpec};
use popmond::json::{self, Value};
use popmond::protocol::{self, Method, Page, Request, SolveQuery, WhatIf};

use crate::trace::span;

/// An expected reply field.
#[derive(Debug, Clone, PartialEq)]
enum Want {
    Num(f64),
    /// A non-finite number, which the wire renders as `null`.
    Null,
    Bool(bool),
    Nums(Vec<f64>),
    Absent,
}

/// The fields the service's reply must carry for one request.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    ok: bool,
    fields: Vec<(&'static str, Want)>,
    resolve: Option<Vec<(&'static str, Want)>>,
}

fn matches(v: Option<&Value>, want: &Want) -> bool {
    match (v, want) {
        (None, Want::Absent) => true,
        (Some(Value::Null), Want::Null) => true,
        (Some(v), Want::Num(x)) => v.as_f64() == Some(*x),
        (Some(v), Want::Bool(b)) => v.as_bool() == Some(*b),
        (Some(v), Want::Nums(xs)) => v.as_arr().is_some_and(|a| {
            a.len() == xs.len() && a.iter().zip(xs).all(|(a, x)| a.as_f64() == Some(*x))
        }),
        _ => false,
    }
}

fn check_fields(obj: &Value, fields: &[(&'static str, Want)]) -> Result<(), String> {
    for (key, want) in fields {
        let got = obj.get(key);
        if !matches(got, want) {
            return Err(format!(
                "field {key}: service {:?}, layers {want:?}",
                got.map(|v| v.to_json())
            ));
        }
    }
    Ok(())
}

impl Answer {
    fn error() -> Self {
        Answer::default()
    }

    /// Compares this answer with the service's reply line.
    pub fn check(&self, reply: &str) -> Result<(), String> {
        let v = json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
        if v.get("ok").and_then(Value::as_bool) != Some(self.ok) {
            return Err(format!("ok differs (layers ok={})", self.ok));
        }
        check_fields(&v, &self.fields)?;
        if let Some(resolve) = &self.resolve {
            let r = v.get("resolve").ok_or("missing resolve")?;
            check_fields(r, resolve)?;
        }
        Ok(())
    }
}

struct Slot {
    pop: Pop,
    delta: DeltaInstance,
    version: u64,
    mutations: u64,
    solves: u64,
    coalesced: u64,
    memo: HashMap<String, Arc<SolveOutcome>>,
}

/// The layer-level replay of a request stream (see the module docs).
#[derive(Default)]
pub struct Shadow {
    slots: HashMap<String, Slot>,
}

fn preset(name: &str) -> Option<PopSpec> {
    Some(match name {
        "small" => PopSpec::small(),
        "paper_10" => PopSpec::paper_10(),
        "paper_15" => PopSpec::paper_15(),
        _ => return None,
    })
}

fn nums(xs: &[usize]) -> Vec<f64> {
    xs.iter().map(|&x| x as f64).collect()
}

/// The reply fields of a solve, as the service formats them.
fn solve_fields(
    version: u64,
    query: &SolveQuery,
    outcome: &SolveOutcome,
    page: Page,
) -> Vec<(&'static str, Want)> {
    let mut f = vec![("version", Want::Num(version as f64))];
    let (partial, degraded) = match outcome {
        SolveOutcome::Degraded {
            partial,
            work_spent,
            bound,
            ..
        } => (partial.as_ref(), Some((*work_spent, *bound))),
        other => (other, None),
    };
    let ppm = match partial {
        SolveOutcome::Ppm(s) => Some((&s.edges, s.proven_optimal)),
        SolveOutcome::Budget(s) => Some((&s.edges, s.proven_optimal)),
        _ => None,
    };
    match ppm {
        Some((edges, proven)) => {
            let start = page.page.saturating_mul(page.page_size).min(edges.len());
            let end = (start + page.page_size).min(edges.len());
            f.push(("feasible", Want::Bool(true)));
            f.push(("devices", Want::Num(edges.len() as f64)));
            f.push(("placement", Want::Nums(nums(&edges[start..end]))));
            f.push(("proven_optimal", Want::Bool(proven)));
        }
        None => f.push(("feasible", Want::Bool(false))),
    }
    match degraded {
        Some((work, bound)) => {
            f.push(("degraded", Want::Bool(true)));
            f.push(("work_spent", Want::Num(work as f64)));
            f.push((
                "bound",
                if bound.is_finite() {
                    Want::Num(bound)
                } else {
                    Want::Null
                },
            ));
        }
        None => f.push(("degraded", Want::Absent)),
    }
    if query.mode == protocol::Mode::Ppm {
        f.push(("k", Want::Num(query.k)));
    }
    f
}

impl Slot {
    /// Solves through the per-version memo, as the service does.
    fn solve(&mut self, query: &SolveQuery) -> Result<Arc<SolveOutcome>, String> {
        let key = protocol::query_key(query);
        if let Some(hit) = self.memo.get(&key) {
            self.coalesced += 1;
            return Ok(hit.clone());
        }
        self.solves += 1;
        let mut req = SolveRequest::ppm(query.k).with_node_budget(query.max_nodes);
        req = match query.method {
            Method::Greedy => req.greedy(),
            Method::Exact => req.exact(),
        };
        if let Some(units) = query.effective_budget() {
            req = req.with_work_budget(units);
        }
        let outcome =
            span("placement.delta.resolve", || self.delta.solve(&req)).map_err(|e| e.message)?;
        let outcome = Arc::new(outcome);
        self.memo.insert(key, outcome.clone());
        Ok(outcome)
    }
}

impl Shadow {
    /// Answers one request line through the layers.
    pub fn apply(&mut self, line: &str) -> Answer {
        let request = match span("popmond.protocol.parse", || protocol::parse_request(line)) {
            Ok(r) => r,
            Err(_) => return Answer::error(),
        };
        self.dispatch(request).unwrap_or_else(|_| Answer::error())
    }

    fn slot(&mut self, id: &str) -> Result<&mut Slot, String> {
        self.slots
            .get_mut(id)
            .ok_or_else(|| format!("no instance {id}"))
    }

    fn dispatch(&mut self, request: Request) -> Result<Answer, String> {
        match request {
            Request::LoadSpec {
                id,
                spec,
                seed,
                routed,
            } => {
                let preset = preset(&spec).ok_or("unsupported preset")?;
                let pop = span("popgen.pop", || preset.build());
                let ts = span("popgen.traffic", || {
                    TrafficSpec::default().generate(&pop, seed)
                });
                let delta = span("placement.instance", || {
                    if routed {
                        DeltaInstance::from_traffic(&pop.graph, &ts)
                    } else {
                        DeltaInstance::from_instance(&PpmInstance::from_traffic(&pop.graph, &ts))
                    }
                });
                let fields = vec![
                    ("links", Want::Num(pop.graph.edge_count() as f64)),
                    ("traffics", Want::Num(delta.traffic_count() as f64)),
                    ("version", Want::Num(0.0)),
                ];
                self.slots.insert(
                    id,
                    Slot {
                        pop,
                        delta,
                        version: 0,
                        mutations: 0,
                        solves: 0,
                        coalesced: 0,
                        memo: HashMap::new(),
                    },
                );
                Ok(Answer {
                    ok: true,
                    fields,
                    resolve: None,
                })
            }
            Request::Solve { id, query, page } => {
                let slot = self.slot(&id)?;
                let outcome = slot.solve(&query)?;
                Ok(Answer {
                    ok: true,
                    fields: solve_fields(slot.version, &query, &outcome, page),
                    resolve: None,
                })
            }
            Request::WhatIf {
                id,
                action,
                resolve,
                page,
            } => {
                let slot = self.slot(&id)?;
                let d = &mut slot.delta;
                let rerouted = span("placement.delta.mutate", || match &action {
                    WhatIf::FailLink(e) => d.try_fail_link(*e),
                    WhatIf::RestoreLink(e) => d.try_restore_link(*e),
                    WhatIf::ScaleDemand { t, factor } => {
                        d.try_scale_demand(*t, *factor).map(|()| 0)
                    }
                    WhatIf::AddFlow { volume, support } => {
                        d.try_add_flow(*volume, support.clone()).map(|_| 0)
                    }
                    WhatIf::RemoveFlow(t) => d.try_remove_flow(*t).map(|()| 0),
                    WhatIf::SetInstalled(installed) => d.try_set_installed(installed).map(|()| 0),
                })
                .map_err(|e| e.message)?;
                slot.version += 1;
                slot.mutations += 1;
                slot.memo.clear();
                let fields = vec![
                    ("version", Want::Num(slot.version as f64)),
                    ("rerouted", Want::Num(rerouted as f64)),
                    ("traffics", Want::Num(slot.delta.traffic_count() as f64)),
                ];
                let resolve = match resolve {
                    Some(q) => {
                        let outcome = slot.solve(&q)?;
                        Some(solve_fields(slot.version, &q, &outcome, page))
                    }
                    None => None,
                };
                Ok(Answer {
                    ok: true,
                    fields,
                    resolve,
                })
            }
            Request::ScoreEnsemble {
                id,
                failure,
                dynamic,
                scenarios,
                seed,
                placement,
                ..
            } => {
                let slot = self.slot(&id)?;
                let fspec: FailureSpec = failure.parse().map_err(|_| "bad failure spec")?;
                let dspec: Option<DynamicSpec> = match dynamic {
                    Some(d) => Some(d.parse().map_err(|_| "bad dynamic spec")?),
                    None => None,
                };
                let traffics = slot.delta.traffic_count();
                let ensemble = span("popgen.scenarios", || {
                    FailureModel::try_new(&slot.pop, &fspec)
                        .and_then(|m| m.sample_scenarios(traffics, dspec.as_ref(), scenarios, seed))
                })
                .map_err(|e| e.message)?;
                let mut placed = placement.unwrap_or_else(|| slot.delta.installed().to_vec());
                placed.sort_unstable();
                placed.dedup();
                let d = &mut slot.delta;
                let score = span("placement.resilience", || {
                    score_ensemble(d, &placed, &ensemble)
                })
                .map_err(|e| e.message)?;
                Ok(Answer {
                    ok: true,
                    fields: vec![
                        ("version", Want::Num(slot.version as f64)),
                        ("scenarios", Want::Num(score.per_scenario.len() as f64)),
                        ("devices", Want::Num(placed.len() as f64)),
                        ("expected_coverage", Want::Num(score.expected_coverage)),
                        ("p99_tail", Want::Num(score.p99_tail)),
                        ("worst_case", Want::Num(score.worst_case)),
                    ],
                    resolve: None,
                })
            }
            Request::Inspect { id } => {
                let slot = self.slot(&id)?;
                Ok(Answer {
                    ok: true,
                    fields: vec![
                        ("version", Want::Num(slot.version as f64)),
                        ("mutations", Want::Num(slot.mutations as f64)),
                        ("solves", Want::Num(slot.solves as f64)),
                        ("coalesced", Want::Num(slot.coalesced as f64)),
                        ("traffics", Want::Num(slot.delta.traffic_count() as f64)),
                    ],
                    resolve: None,
                })
            }
            Request::Evict { id } => {
                let existed = self.slots.remove(&id).is_some();
                Ok(Answer {
                    ok: true,
                    fields: vec![("existed", Want::Bool(existed))],
                    resolve: None,
                })
            }
            _ => Err("op not replayed".into()),
        }
    }

    /// Solver runs and memo hits summed over every instance.
    pub fn memo_counts(&self) -> (u64, u64) {
        self.slots
            .values()
            .fold((0, 0), |(s, c), slot| (s + slot.solves, c + slot.coalesced))
    }
}
