//! The run record: every metric a run measured, the tails behind its
//! latency metrics, the host and configuration context, and (for traced
//! runs) the raw spans. One record is written per run; its reduced form is
//! the result line the benchmark prints last.

use crate::json::Json;
use crate::stats::Summary;
use crate::trace::Span;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `latency_p50_ms` or `costvec.phase_ns_per_amp`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// Everything one run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Measured seconds requested on the command line.
    pub seconds: u64,
    /// Every checked output matched.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (wrong output, refused, cancelled, errored).
    pub failed: u64,
    /// The metrics of the result line (end-to-end, or per-layer when
    /// traced).
    pub metrics: Vec<Metric>,
    /// Every metric the workload measured, under its workload-specific
    /// name.
    pub report: Vec<Metric>,
    /// Median/tail summaries behind the latency metrics.
    pub tails: Vec<(String, Summary)>,
    /// Host and configuration context.
    pub host: Vec<(String, String)>,
    /// Spans of the traced phase.
    pub spans: Vec<Span>,
}

fn metrics_json(ms: &[Metric]) -> Json {
    Json::Obj(
        ms.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj()
                        .with("value", m.value)
                        .with("unit", m.unit.as_str()),
                )
            })
            .collect(),
    )
}

fn metrics_from(j: &Json) -> Result<Vec<Metric>, String> {
    let Json::Obj(fields) = j else {
        return Err("metrics must be an object".into());
    };
    fields
        .iter()
        .map(|(name, v)| {
            Ok(Metric {
                name: name.clone(),
                value: num(v, "value")?,
                unit: str_of(v, "unit")?.to_string(),
            })
        })
        .collect()
}

/// A number field; `null` reads back as NaN (non-finite numbers are
/// written as `null`).
fn num(j: &Json, key: &str) -> Result<f64, String> {
    match j.get(key) {
        Some(Json::Null) => Ok(f64::NAN),
        Some(v) => v.as_f64().ok_or_else(|| format!("`{key}` is not a number")),
        None => Err(format!("missing number `{key}`")),
    }
}

fn str_of<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn bool_of(j: &Json, key: &str) -> Result<bool, String> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool `{key}`")),
    }
}

impl Record {
    /// The line the benchmark prints last: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics_json(&self.metrics))
            .encode()
    }

    /// The full record as JSON.
    pub fn to_json(&self) -> Json {
        let tails = Json::Obj(
            self.tails
                .iter()
                .map(|(name, s)| {
                    (
                        name.clone(),
                        Json::obj()
                            .with("samples", s.samples)
                            .with("median", s.median)
                            .with("tail_pct", s.tail_pct)
                            .with("tail", s.tail)
                            .with("beyond", s.beyond),
                    )
                })
                .collect(),
        );
        let host = Json::Obj(
            self.host
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        );
        let spans = Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .with("id", s.id)
                        .with("parent", s.parent)
                        .with("request", s.request)
                        .with("name", s.name.as_str())
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                })
                .collect(),
        );
        Json::obj()
            .with("workload", self.workload.as_str())
            .with("seed", self.seed)
            .with("trace", self.trace)
            .with("seconds", self.seconds)
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics_json(&self.metrics))
            .with("report", metrics_json(&self.report))
            .with("tails", tails)
            .with("host", host)
            .with("spans", spans)
    }

    /// Parses a record written by [`to_json`](Self::to_json).
    pub fn from_json(j: &Json) -> Result<Record, String> {
        let tails = match j.get("tails") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(name, t)| {
                    Ok((
                        name.clone(),
                        Summary {
                            samples: num(t, "samples")? as usize,
                            median: num(t, "median")?,
                            tail_pct: num(t, "tail_pct")? as usize,
                            tail: num(t, "tail")?,
                            beyond: num(t, "beyond")? as usize,
                        },
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing `tails`".into()),
        };
        let host = match j.get("host") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("host `{k}` is not a string"))
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing `host`".into()),
        };
        let spans = match j.get("spans") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|s| {
                    Ok(Span {
                        id: num(s, "id")? as u64,
                        parent: num(s, "parent")? as u64,
                        request: num(s, "request")? as u64,
                        name: str_of(s, "name")?.to_string(),
                        start_ns: num(s, "start_ns")? as u64,
                        end_ns: num(s, "end_ns")? as u64,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing `spans`".into()),
        };
        Ok(Record {
            workload: str_of(j, "workload")?.to_string(),
            seed: num(j, "seed")? as u64,
            trace: bool_of(j, "trace")?,
            seconds: num(j, "seconds")? as u64,
            correct: bool_of(j, "correct")?,
            attempted: num(j, "attempted")? as u64,
            failed: num(j, "failed")? as u64,
            metrics: metrics_from(j.get("metrics").ok_or("missing `metrics`")?)?,
            report: metrics_from(j.get("report").ok_or("missing `report`")?)?,
            tails,
            host,
            spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            workload: "scan_maxcut".into(),
            seed: 7,
            trace: true,
            seconds: 3,
            correct: true,
            attempted: 12,
            failed: 1,
            metrics: vec![
                Metric::new("latency_p50_ms", 1.0 / 7.0, "ms"),
                Metric::new("setup_s", 0.012345678901234, "s"),
            ],
            report: vec![Metric::new("scan_points_per_s", 12345.678, "points/s")],
            tails: vec![(
                "latency_ms".into(),
                Summary {
                    samples: 40,
                    median: 2.5,
                    tail_pct: 75,
                    tail: 3.25,
                    beyond: 10,
                },
            )],
            host: vec![("nproc".into(), "2".into())],
            spans: vec![Span {
                id: 1,
                parent: 0,
                request: 3,
                name: "core.scan".into(),
                start_ns: 10,
                end_ns: 99,
            }],
        }
    }

    #[test]
    fn record_round_trips_through_json_text() {
        let r = sample();
        let back = Record::from_json(&Json::parse(&r.to_json().encode()).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = Json::parse(&sample().result_line()).unwrap();
        let Json::Obj(fields) = &line else {
            panic!("result line must be an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.012345678901234));
    }
}
