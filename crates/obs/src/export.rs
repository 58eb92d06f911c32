//! Snapshot encoders: metrics and flight spans as JSON.
//!
//! Hand-rolled on purpose — the workspace builds offline with no serde —
//! and deliberately boring: stable key order (registries are BTreeMaps,
//! spans arrive start-sorted) so exported artifacts diff cleanly across
//! runs.

use crate::flight::SpanRecord;
use crate::latency::TailSnapshot;
use crate::metrics::{MetricValue, Snapshot};

/// Escapes `s` for inclusion inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A tail histogram's rank-exact quantiles as JSON members
/// (`"p50":..,"p90":..,"p99":..,"p999":..`).
fn json_quantiles(t: &TailSnapshot) -> String {
    [(0.50, "p50"), (0.90, "p90"), (0.99, "p99"), (0.999, "p999")]
        .iter()
        .map(|&(q, key)| format!("\"{key}\":{}", t.quantile(q).unwrap_or(0)))
        .collect::<Vec<_>>()
        .join(",")
}

/// Encodes a metrics snapshot as a JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{name:{"count":..,"sum":..,"buckets":[[le,n],..]}},"tails":{name:{"count":..,"sum":..,"max":..,"p50":..,"p90":..,"p99":..,"p999":..}}}`.
pub fn metrics_to_json(snapshot: &Snapshot) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    let mut tails = Vec::new();
    for m in &snapshot.metrics {
        let name = json_escape(&m.name);
        match &m.value {
            MetricValue::Counter(v) => counters.push(format!("\"{name}\":{v}")),
            MetricValue::Gauge(v) => gauges.push(format!("\"{name}\":{v}")),
            MetricValue::Histogram(h) => {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|&(le, n)| format!("[{le},{n}]"))
                    .collect();
                histograms.push(format!(
                    "\"{name}\":{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                    h.count,
                    h.sum,
                    buckets.join(",")
                ));
            }
            MetricValue::Tail(t) => {
                tails.push(format!(
                    "\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},{}}}",
                    t.count,
                    t.sum,
                    t.max,
                    json_quantiles(t)
                ));
            }
        }
    }
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}},\"tails\":{{{}}}}}",
        counters.join(","),
        gauges.join(","),
        histograms.join(","),
        tails.join(",")
    )
}

/// Encodes recorded spans as a JSON array. `phase_name` supplies the
/// human label for each phase code (obs itself does not know what the
/// codes mean — the simulator layer that emitted them does).
pub fn spans_to_json(spans: &[SpanRecord], phase_name: &dyn Fn(u16) -> String) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"trace\":{},\"phase\":\"{}\",\"code\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.trace.raw(),
                json_escape(&phase_name(s.phase)),
                s.phase,
                s.start_ns,
                s.dur_ns
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::trace::TraceId;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter("calls_total").add(3);
        reg.gauge("estack/busy").set(-1);
        let h = reg.histogram("latency_ns");
        h.observe(0);
        h.observe(5);
        let t = reg.tail("tail_ns");
        t.observe(10);
        t.observe(20);
        reg.snapshot()
    }

    #[test]
    fn json_shape_is_stable() {
        let json = metrics_to_json(&sample());
        assert_eq!(
            json,
            "{\"counters\":{\"calls_total\":3},\
             \"gauges\":{\"estack/busy\":-1},\
             \"histograms\":{\"latency_ns\":{\"count\":2,\"sum\":5,\"buckets\":[[0,1],[7,1]]}},\
             \"tails\":{\"tail_ns\":{\"count\":2,\"sum\":30,\"max\":20,\
             \"p50\":10,\"p90\":20,\"p99\":20,\"p999\":20}}}"
        );
    }

    #[test]
    fn spans_round_trip_labels() {
        let spans = [SpanRecord {
            trace: TraceId::from_raw(9),
            phase: 2,
            start_ns: 100,
            dur_ns: 50,
        }];
        let json = spans_to_json(&spans, &|code| format!("phase-{code}"));
        assert_eq!(
            json,
            "[{\"trace\":9,\"phase\":\"phase-2\",\"code\":2,\"start_ns\":100,\"dur_ns\":50}]"
        );
    }
}
