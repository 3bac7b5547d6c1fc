//! Checks and answer-quality counts over popmond request/reply pairs,
//! shared by the two request workloads.

use popmond::json::{self, Value};
use popmond::protocol::{self, Method, Request, SolveQuery};

use crate::report::Report;

/// Answer quality and deadline accounting over a set of replies.
#[derive(Debug, Default, Clone)]
pub struct Quality {
    /// Replies that were `overloaded` sheds.
    pub shed: u64,
    /// Requests carrying `deadline_ms`.
    pub deadline_n: u64,
    /// Of those, answered after the deadline or not answered.
    pub deadline_missed: u64,
    /// Exact answers.
    pub exact_n: u64,
    /// Exact answers proven optimal.
    pub proven_n: u64,
    /// Summed device count of exact answers not proven optimal.
    pub devices_unproven: f64,
    /// `work_spent / budget` of each degraded answer.
    pub overshoot: Vec<f64>,
    /// `(work_spent, request index)` of each degraded answer.
    pub degraded_work: Vec<(f64, usize)>,
    /// Summed reply bytes.
    pub reply_bytes: u64,
    /// Replies seen.
    pub replies: u64,
}

impl Quality {
    /// Adds another set of replies' counts to this one.
    pub fn add(&mut self, q: &Quality) {
        self.shed += q.shed;
        self.deadline_n += q.deadline_n;
        self.deadline_missed += q.deadline_missed;
        self.exact_n += q.exact_n;
        self.proven_n += q.proven_n;
        self.devices_unproven += q.devices_unproven;
        self.overshoot.extend_from_slice(&q.overshoot);
        self.degraded_work.extend_from_slice(&q.degraded_work);
        self.reply_bytes += q.reply_bytes;
        self.replies += q.replies;
    }

    /// Share of deadline requests that missed (0 without any).
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.deadline_n == 0 {
            0.0
        } else {
            self.deadline_missed as f64 / self.deadline_n as f64
        }
    }

    /// Share of exact answers proven optimal (0 without any).
    pub fn proven_fraction(&self) -> f64 {
        if self.exact_n == 0 {
            0.0
        } else {
            self.proven_n as f64 / self.exact_n as f64
        }
    }
}

/// The solve query a request carries (a solve, or a what-if's re-solve).
pub fn query_of(line: &str) -> Option<SolveQuery> {
    match protocol::parse_request(line).ok()? {
        Request::Solve { query, .. } => Some(query),
        Request::WhatIf { resolve, .. } => resolve,
        _ => None,
    }
}

/// Checks one reply and adds it to `q`: the reply must parse and carry
/// `ok:true`, and a degraded answer must satisfy `bound <= devices`.
/// `latency_ms` is measured from when the request was due.
pub fn assess(
    index: usize,
    line: &str,
    reply: &str,
    latency_ms: f64,
    q: &mut Quality,
    report: &mut Report,
) {
    q.replies += 1;
    q.reply_bytes += reply.len() as u64;
    let query = query_of(line);
    let deadline = query.as_ref().and_then(|x| x.deadline_ms);
    if deadline.is_some() {
        q.deadline_n += 1;
    }
    let v = match json::parse(reply) {
        Ok(v) => v,
        Err(e) => {
            q.deadline_missed += u64::from(deadline.is_some());
            report.fail(format!("request {index}: reply is not JSON ({e}): {reply}"));
            return;
        }
    };
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        q.deadline_missed += u64::from(deadline.is_some());
        let code = v
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .unwrap_or("?");
        if code == "overloaded" {
            q.shed += 1;
        }
        report.fail(format!("request {index}: {code}: {line} -> {reply}"));
        return;
    }
    if let Some(d) = deadline {
        if latency_ms > d as f64 {
            q.deadline_missed += 1;
        }
    }
    let Some(query) = query else { return };
    let obj = v.get("resolve").unwrap_or(&v);
    let devices = obj.get("devices").and_then(Value::as_f64);
    if query.method == Method::Exact {
        if let Some(devices) = devices {
            q.exact_n += 1;
            if obj.get("proven_optimal").and_then(Value::as_bool) == Some(true) {
                q.proven_n += 1;
            } else {
                q.devices_unproven += devices;
            }
        }
    }
    if obj.get("degraded").and_then(Value::as_bool) == Some(true) {
        let work = obj.get("work_spent").and_then(Value::as_f64).unwrap_or(0.0);
        if let Some(budget) = query.effective_budget() {
            q.overshoot.push(work / budget as f64);
        }
        q.degraded_work.push((work, index));
        // A finite bound must not exceed the answer (`bound <= optimal <=
        // devices`); `null` means the root relaxation never finished.
        if let (Some(bound), Some(devices)) = (obj.get("bound").and_then(Value::as_f64), devices) {
            if bound > devices + 1e-9 {
                report.fail(format!(
                    "request {index}: degraded bound {bound} exceeds its {devices} devices"
                ));
            }
        }
    }
}
