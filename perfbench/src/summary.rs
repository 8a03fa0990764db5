//! Shared summary statistics: one nearest-rank percentile that carries
//! its sample count, medians and quartiles across runs, and the
//! environment block printed with every result.

/// A percentile read off a sample set, with the number of samples it
/// was read from (a p99 over 40 samples is the maximum, and says so).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub count: usize,
}

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` of all samples are at or below it (`p` in `(0, 1]`). 0 for an
/// empty set.
pub fn percentile(samples: &[f64], p: f64) -> Pct {
    if samples.is_empty() {
        return Pct {
            value: 0.0,
            count: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Pct {
        value: sorted[rank.clamp(1, sorted.len()) - 1],
        count: sorted.len(),
    }
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).value
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive values; 0 for an empty set.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
    }
}

/// First quartile, median and third quartile across runs, by the
/// "exclusive" method of Python's `statistics.quantiles(values, n=4)`,
/// which is how run-to-run spread is judged.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len() as i64;
    let at = |i: i64| {
        // Python: j = clamp(i * (len + 1) // 4, 1, len - 1), then a
        // linear blend of data[j - 1] and data[j] that may extrapolate.
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1) - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a metric must keep below its bound.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// `p50 … p99 … (n=…, IQR/median …)` of a run's samples, for the
/// report lines.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let p99 = percentile(samples, 0.99);
    let spread = relative_spread(samples)
        .map(|s| format!("{s:.3}"))
        .unwrap_or_else(|| "-".into());
    format!(
        "p50 {:.3} {unit}, p99 {:.3} {unit} (n={}, IQR/median {spread})",
        median(samples),
        p99.value,
        p99.count
    )
}

/// Share `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The machine and configuration a result was measured under.
#[derive(Debug, Clone, Default)]
pub struct Env {
    pub workload: String,
    pub seed: u64,
    pub pool_frames: usize,
    pub store_pages: u64,
    pub lines: usize,
    pub offered_rate: f64,
    pub sync_policy: String,
    pub checkpoint_policy: String,
}

impl Env {
    /// The block as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": {}, \"git_sha\": {}, \"workload\": {}, \"seed\": {}, \
             \"pool_frames\": {}, \"store_pages\": {}, \"lines\": {}, \"offered_rate\": {}, \
             \"sync_policy\": {}, \"checkpoint_policy\": {}}}",
            nproc(),
            json_str(&command_line("rustc", &["--version"])),
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
            json_str(&self.workload),
            self.seed,
            self.pool_frames,
            self.store_pages,
            self.lines,
            self.offered_rate,
            json_str(&self.sync_policy),
            json_str(&self.checkpoint_policy),
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// First line of a command's standard output, or `"unknown"` (a
/// checkout without git metadata has no sha).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_carry_their_count() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&s, 0.5),
            Pct {
                value: 50.0,
                count: 100
            }
        );
        assert_eq!(percentile(&s, 0.99).value, 99.0);
        assert_eq!(percentile(&s, 1.0).value, 100.0);
        // Unsorted input, and a p99 over few samples is the maximum.
        let few = [5.0, 1.0, 3.0];
        assert_eq!(
            percentile(&few, 0.99),
            Pct {
                value: 5.0,
                count: 3
            }
        );
        assert_eq!(median(&few), 3.0);
        assert_eq!(
            percentile(&[], 0.5),
            Pct {
                value: 0.0,
                count: 0
            }
        );
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_of_medians() {
        assert!((geometric_mean(&[1.0, 2.0, 4.0, 8.0]) - 8f64.sqrt()).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn env_block_is_one_json_object() {
        let env = Env {
            workload: "paper_t4".into(),
            seed: 7,
            pool_frames: 512,
            store_pages: 2400,
            lines: 1000,
            sync_policy: "none".into(),
            checkpoint_policy: "none".into(),
            ..Env::default()
        };
        let json = env.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"nproc\"",
            "\"rustc\"",
            "\"git_sha\"",
            "\"pool_frames\": 512",
            "\"store_pages\": 2400",
            "\"lines\": 1000",
            "\"offered_rate\"",
            "\"sync_policy\"",
            "\"checkpoint_policy\"",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn describe_names_the_sample_count() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            describe(&v, "ms"),
            "p50 5.000 ms, p99 10.000 ms (n=10, IQR/median 1.000)"
        );
    }
}
