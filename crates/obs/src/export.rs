//! Snapshot encoders: metrics and flight spans as JSON.
//!
//! Hand-rolled on purpose — the workspace builds offline with no serde —
//! and deliberately boring: stable key order (registries are BTreeMaps,
//! spans arrive start-sorted) so exported artifacts diff cleanly across
//! runs.

use crate::flight::SpanRecord;
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

/// Encodes a metrics snapshot as a JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{name:{"count":..,"sum":..,"max":..,"p50":..,"p90":..,"p99":..,"p999":..}}}`.
/// Every histogram has that one shape: its exact count, sum and max,
/// then its rank-exact quantiles at its own precision.
pub fn metrics_to_json(snapshot: &Snapshot) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for m in &snapshot.metrics {
        let name = json_escape(&m.name);
        match &m.value {
            MetricValue::Counter(v) => counters.push(format!("\"{name}\":{v}")),
            MetricValue::Gauge(v) => gauges.push(format!("\"{name}\":{v}")),
            MetricValue::Histogram(h) => {
                let quantiles: Vec<String> =
                    [(0.50, "p50"), (0.90, "p90"), (0.99, "p99"), (0.999, "p999")]
                        .iter()
                        .map(|&(q, key)| format!("\"{key}\":{}", h.quantile(q).unwrap_or(0)))
                        .collect();
                histograms.push(format!(
                    "\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},{}}}",
                    h.count,
                    h.sum,
                    h.max,
                    quantiles.join(",")
                ));
            }
        }
    }
    format!(
        "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
        counters.join(","),
        gauges.join(","),
        histograms.join(",")
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
    use crate::histogram::{LOG2_BITS, TAIL_BITS};
    use crate::metrics::Registry;
    use crate::trace::TraceId;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter("calls_total").add(3);
        reg.gauge("estack/busy").set(-1);
        let h = reg.histogram("bytes", LOG2_BITS);
        for v in [0, 5, 9] {
            h.observe(v);
        }
        let t = reg.histogram("tail_ns", TAIL_BITS);
        t.observe(10);
        t.observe(20);
        reg.snapshot()
    }

    #[test]
    fn json_shape_is_stable() {
        // At 0 bits 5 reports its bucket's bound 7; 9's bucket [8, 15]
        // caps at the exact max. At 7 bits values below 128 are exact.
        let json = metrics_to_json(&sample());
        assert_eq!(
            json,
            "{\"counters\":{\"calls_total\":3},\
             \"gauges\":{\"estack/busy\":-1},\
             \"histograms\":{\"bytes\":{\"count\":3,\"sum\":14,\"max\":9,\
             \"p50\":7,\"p90\":9,\"p99\":9,\"p999\":9},\
             \"tail_ns\":{\"count\":2,\"sum\":30,\"max\":20,\
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
