//! The metric catalogue and the result line.
//!
//! `END_TO_END` and `PER_LAYER` are the metrics `BENCHMARK.json` declares,
//! with their units; a test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_trimmed_mean_ms", "ms"),
    ("slo_share", "share"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("latency.tail_ms", "ms"),
    ("transform.fft_forward_us", "us"),
    ("transform.fft_inverse_us", "us"),
    ("transform.mac_us", "us"),
    ("external_product.cmux_us", "us"),
    ("transform.fft_forward_calls", "count"),
    ("transform.fft_inverse_calls", "count"),
    ("transform.mac_calls", "count"),
    ("transform.share", "share"),
    ("bootstrap.pbs_ms", "ms"),
    ("bootstrap.modulus_switch_us", "us"),
    ("bootstrap.blind_rotate_ms", "ms"),
    ("bootstrap.sample_extract_us", "us"),
    ("ksk.key_switch_ms", "ms"),
    ("bootstrap.stage_coverage", "share"),
    ("bytes.bsk_per_pbs", "B"),
    ("bytes.ksk_per_pbs", "B"),
    ("pbs.set1_p50_ms", "ms"),
    ("pbs.set1_p90_ms", "ms"),
    ("pbs.set2_p50_ms", "ms"),
    ("pbs.set2_p90_ms", "ms"),
    ("engine.busy_share", "share"),
    ("engine.burst_busy_share", "share"),
    ("engine.retries", "count"),
    ("dispatch.admit_us", "us"),
    ("dispatch.queue_wait_p50_ms", "ms"),
    ("dispatch.queue_wait_tail_ms", "ms"),
    ("dispatch.exec_ms", "ms"),
    ("dispatch.resolve_us", "us"),
    ("dispatch.batch_size", "count"),
    ("dispatch.batches", "count"),
    ("dispatch.retries", "count"),
    ("dispatch.expired", "count"),
    ("dispatch.rejected", "count"),
    ("keystore.hit_ratio", "share"),
    ("keystore.loads", "count"),
    ("keystore.evictions", "count"),
    ("keystore.load_us", "us"),
    ("serialize.deserialize_ms", "ms"),
    ("bench.gen_late_tail_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (bootstraps or requests).
    pub attempted: u64,
    /// Operations that errored or decrypted to the wrong plaintext.
    pub failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
    /// Context printed above the result line (sample counts, limits,
    /// traced-run end-to-end values).
    pub notes: Vec<String>,
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

impl Report {
    /// Record an end-to-end metric.
    pub fn set_e2e(&mut self, name: &'static str, value: f64) {
        unit_of(&END_TO_END, name);
        self.e2e.insert(name, value);
    }

    /// Record a per-layer metric.
    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        unit_of(&PER_LAYER, name);
        self.layer.insert(name, value);
    }

    /// Record the median set-up time of `reps` repetitions.
    pub fn set_setup(&mut self, seconds: f64, reps: usize) {
        self.set_e2e("setup_s", seconds);
        self.notes
            .push(format!("set-up: median of {reps} repetitions"));
    }

    /// Count `n` attempted operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Whether every operation succeeded with the right plaintext.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable lines followed by the JSON result line.
    ///
    /// # Errors
    ///
    /// An end-to-end metric the workload failed to measure, or a
    /// non-finite value.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        let mut fields = Vec::new();
        if trace {
            for (name, value) in &self.e2e {
                out.push_str(&format!(
                    "# traced end-to-end {name} = {value} {}\n",
                    unit_of(&END_TO_END, name)
                ));
            }
        }
        let (table, values): (&[(&str, &str)], _) = if trace {
            (&PER_LAYER, &self.layer)
        } else {
            (&END_TO_END, &self.e2e)
        };
        for &(name, unit) in table {
            let value = match values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            out.push_str(&format!("{name:<32} {value:>16.6} {unit}\n"));
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ));
        Ok(out)
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_result_line_holds_every_end_to_end_metric() {
        let mut r = Report::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set_e2e(name, 1.5 + i as f64);
        }
        r.count(10, 0);
        let text = r.render(false).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(last.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(!last.contains("transform."));
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error_but_layers_default_to_zero() {
        let r = Report::default();
        assert!(r.render(false).is_err());
        let last = r.render(true).unwrap();
        let last = last.lines().last().unwrap();
        assert!(last.contains("\"keystore.loads\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(last.starts_with("{\"correct\": false"));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.123456789012345), "0.123456789012345");
        assert_eq!(json_number(1e-10), "0.0000000001");
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the crate");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect(key);
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = open + rest[open..].find('"').expect("value closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let want = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), want(&END_TO_END));
        assert_eq!(declared("per_layer"), want(&PER_LAYER));
    }
}
