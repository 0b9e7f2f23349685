//! Compare mode: per-metric deltas between two saved outputs of the
//! benchmark (typically two traced runs, parent and change), so a
//! change can show in which layer its saving sits.

use fpa_harness::json::Json;
use std::fmt::Write as _;
use std::path::Path;

/// `(name, value, unit)` of every metric in the result line of a saved
/// run's output: its last line that parses as a JSON object with a
/// `metrics` field.
fn metrics(text: &str) -> Result<Vec<(String, f64, String)>, String> {
    let result = text
        .lines()
        .rev()
        .filter_map(|l| Json::parse(l).ok())
        .find(|j| j.get("metrics").is_some())
        .ok_or("no result line")?;
    let Some(Json::Obj(pairs)) = result.get("metrics") else {
        return Err("`metrics` is not an object".into());
    };
    pairs
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            let unit = m.get("unit").and_then(Json::as_str);
            match (value, unit) {
                (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                _ => Err(format!("malformed metric {name}")),
            }
        })
        .collect()
}

/// The delta table between two saved outputs.
///
/// # Errors
///
/// Either file is unreadable or holds no result line.
pub fn run(old: &Path, new: &Path) -> Result<String, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| metrics(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    Ok(table(&read(old)?, &read(new)?))
}

/// The delta table of `old` → `new`: one row per metric in either
/// output, in `new`'s order then any `old`-only rows.
fn table(old: &[(String, f64, String)], new: &[(String, f64, String)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>14} {:>14} {:>9}  unit",
        "metric", "old", "new", "delta"
    );
    let find = |list: &[(String, f64, String)], name: &str| {
        list.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    };
    let names = new.iter().map(|(n, _, u)| (n, u)).chain(
        old.iter()
            .map(|(n, _, u)| (n, u))
            .filter(|(n, _)| find(new, n).is_none()),
    );
    for (name, unit) in names {
        let cell = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
        let (a, b) = (find(old, name), find(new, name));
        let delta = match (a, b) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:+.1}%", (b / a - 1.0) * 100.0),
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{name:<32} {:>14} {:>14} {delta:>9}  {unit}",
            cell(a),
            cell(b)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_are_relative_to_the_old_value() {
        let old = metrics(
            "note x\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":\
             {\"sim.timing.self_ms\":{\"value\":2,\"unit\":\"ms\"},\"gone\":{\"value\":1,\"unit\":\"ms\"}}}\n",
        )
        .unwrap();
        let new = metrics(
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":\
             {\"sim.timing.self_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}",
        )
        .unwrap();
        let out = table(&old, &new);
        let rows: Vec<&str> = out.lines().collect();
        assert!(
            rows[1].starts_with("sim.timing.self_ms") && rows[1].contains("-25.0%"),
            "{out}"
        );
        assert!(
            rows[2].starts_with("gone") && rows[2].contains(" - "),
            "{out}"
        );
    }

    #[test]
    fn output_without_a_result_line_is_an_error() {
        assert_eq!(metrics("note only\n").unwrap_err(), "no result line");
    }
}
