//! `bench-compare` — the perf-diff gate: fail when a fresh benchsuite
//! run regresses against a committed baseline beyond the noise band.
//!
//! Usage:
//! ```text
//! bench-compare BASELINE.json FRESH.json
//!               [--noise F]       # noise band, default 0.25
//!               [--severe F]      # per-cell hard limit, default 0.60
//!               [--systemic F]    # per-table violation rate, default 0.20
//!               [--materiality F] # time-cell absolute floor (s), default 0.025
//! ```
//!
//! Both files are [`psh_bench::Report`] envelopes (e.g. `BENCH_8.json`
//! from `benchsuite`). For every table present in **both** documents,
//! rows are joined on their key cells (every column that isn't a
//! recognized metric) and each metric is compared:
//!
//! * columns named `qps`/`*speedup*` are **higher-is-better** — a drop
//!   below `baseline × (1 − noise)` is beyond the band;
//! * columns ending in `(s)` or `(ms)` are **lower-is-better** — a rise
//!   above `baseline × (1 + noise)` is beyond the band;
//! * every other column is part of the join key.
//!
//! ## What actually fails the gate
//!
//! A single benchmark run has heavy-tailed noise: on a busy machine the
//! p999 of a one-query batch swings 10× between back-to-back runs of the
//! *same binary*, and a ratio of two sub-millisecond timings is noise
//! squared. Gating "any cell beyond ±25%" would make the gate red on
//! every run. So cells are split into two classes:
//!
//! * **informational** — tail percentiles (`p99`, `p999`), ratio
//!   columns (`*speedup*`), and `qps rebuild` (its sampling window is
//!   the rebuild duration itself, which legitimately shrinks when
//!   builds speed up). Reported when beyond the band, never fatal.
//! * **gated** — everything else (`qps`, `p50`, absolute timings).
//!   Beyond the band they count as violations; the gate fails when a
//!   violation is **severe** (a single cell worse than the `--severe`
//!   limit — a broken code path, not jitter) or **systemic** (more than
//!   `--systemic` of a table's gated cells regress, and at least 3 — a
//!   real slowdown shifts a whole table, noise flips isolated cells).
//!
//! Tables, rows or columns present on only one side are reported but
//! not fatal (the matrix is allowed to grow): the table-set difference
//! is printed up front as explicit `added`/`removed` lists, and each
//! shared table names the baseline columns the fresh run no longer
//! has, so a table or column that silently fell out of the fresh run is
//! visible rather than indistinguishable from a passing one. A `meta`
//! workload mismatch (`n`, `queries`, `seed`, or `schema_version`
//! differing) **is** fatal, since numbers from different workloads
//! cannot be meaningfully compared.
//! Tiny absolute values (both sides < 1 ms / < 1 qps) are skipped — at
//! that scale the timer, not the code, dominates. Gated **time** cells
//! additionally pass through a materiality floor: a relative band on a
//! one-shot millisecond timing turns scheduler jitter into false alarms
//! (a swap pause wobbling 0.5 ms → 2 ms is "+300%" of nothing), so a
//! time cell only counts as a violation when its absolute delta exceeds
//! `--materiality` seconds (default 25 ms); below that it is reported
//! as a note. A genuinely broken path (10 ms → 500 ms) clears the floor.
//!
//! Exit status: 0 when the gate passes, 1 on severe/systemic regression
//! or workload mismatch, 2 on unusable input.

use psh_bench::json::{parse_flag, JsonValue};

const PROG: &str = "bench-compare";

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("{PROG}: {msg}");
    std::process::exit(2);
}

/// Which way a column must move to count as an improvement.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

/// Classify a column header: a metric with a direction, or a join key.
fn direction(column: &str) -> Option<Direction> {
    let c = column.to_ascii_lowercase();
    if c.contains("qps") || c.contains("speedup") {
        Some(Direction::HigherIsBetter)
    } else if c.ends_with("(s)") || c.ends_with("(ms)") {
        Some(Direction::LowerIsBetter)
    } else {
        None
    }
}

/// True when a metric participates in the pass/fail decision. Tail
/// percentiles and measurement ratios are reported but never gate: their
/// single-run variance is larger than any band worth alerting on.
fn gates(column: &str) -> bool {
    let c = column.to_ascii_lowercase();
    // `qps rebuild` counts queries completed inside the rebuild window,
    // and that window is itself a measured quantity: when builds get
    // faster the window shrinks below one batch completion and the cell
    // honestly reads 0. A shrinking denominator is not an independent
    // regression signal, so the cell is informational; `rebuild (s)`
    // and `swap (ms)` stay gated.
    !(c.contains("p99") || c.contains("speedup") || c == "qps rebuild")
}

/// Parse a table cell as a number (the writer's `fmt_u` inserts
/// thousands separators; strip them).
fn cell_number(cell: &JsonValue) -> Option<f64> {
    let s = cell.as_str()?;
    s.replace(',', "").trim().parse::<f64>().ok()
}

/// A table row decomposed into its join key and its metric values.
struct Row<'a> {
    key: String,
    metrics: Vec<(&'a str, Direction, f64)>,
}

fn decompose(row: &JsonValue) -> Option<Row<'_>> {
    let JsonValue::Object(fields) = row else {
        return None;
    };
    let mut key = String::new();
    let mut metrics = Vec::new();
    for (column, cell) in fields {
        match (direction(column), cell_number(cell)) {
            (Some(dir), Some(v)) => metrics.push((column.as_str(), dir, v)),
            _ => {
                // a key cell: its column name disambiguates rows even if
                // two key columns hold the same text
                key.push_str(column);
                key.push('=');
                key.push_str(cell.as_str().unwrap_or("?"));
                key.push('|');
            }
        }
    }
    Some(Row { key, metrics })
}

/// Columns the baseline rows carry that no fresh row does, in baseline
/// order. Their cells have nothing to compare against, so the caller
/// names them instead of skipping them silently.
fn removed_columns<'a>(base_rows: &'a [JsonValue], fresh_rows: &[JsonValue]) -> Vec<&'a str> {
    let columns = |row: &'a JsonValue| match row {
        JsonValue::Object(fields) => fields.iter().map(|(c, _)| c.as_str()).collect(),
        _ => Vec::new(),
    };
    let mut removed: Vec<&str> = Vec::new();
    for column in base_rows.iter().flat_map(columns) {
        let in_fresh = fresh_rows.iter().any(|row| row.get(column).is_some());
        if !in_fresh && !removed.contains(&column) {
            removed.push(column);
        }
    }
    removed
}

/// Load one report document and return its (meta, tables) objects.
fn load(path: &str) -> (JsonValue, Vec<(String, JsonValue)>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")));
    let doc = JsonValue::parse(&text)
        .unwrap_or_else(|e| die(format_args!("{path} is not valid JSON: {e}")));
    let meta = doc
        .get("meta")
        .cloned()
        .unwrap_or(JsonValue::Object(Vec::new()));
    let tables = match doc.get("tables") {
        Some(JsonValue::Object(tables)) => tables.clone(),
        _ => die(format_args!("{path} has no tables object")),
    };
    (meta, tables)
}

fn parse_fraction(flag: &str, default: f64) -> f64 {
    match parse_flag(flag) {
        None => default,
        Some(s) => match s.trim().parse::<f64>() {
            Ok(v) if v > 0.0 => v,
            _ => die(format_args!("bad {flag} '{s}' (want a fraction > 0)")),
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with("--") && a.parse::<f64>().is_err())
        .collect();
    let [baseline_path, fresh_path] = args.as_slice() else {
        die(
            "usage: bench-compare BASELINE.json FRESH.json [--noise F] [--severe F] [--systemic F]",
        );
    };
    let noise = parse_fraction("--noise", 0.25);
    let severe = parse_fraction("--severe", 0.60);
    let systemic = parse_fraction("--systemic", 0.20);
    let materiality = parse_fraction("--materiality", 0.025);
    if severe < noise {
        die(format_args!(
            "--severe ({severe}) must be at least --noise ({noise})"
        ));
    }

    let (base_meta, base_tables) = load(baseline_path);
    let (fresh_meta, fresh_tables) = load(fresh_path);

    // Workload compatibility: same n/queries/seed/schema, or the
    // comparison is meaningless. Keys absent on either side are skipped
    // so older baselines without newer meta keys stay comparable.
    let mut failures = 0usize;
    for knob in ["schema_version", "n", "queries", "seed", "quick"] {
        if let (Some(b), Some(f)) = (base_meta.get(knob), fresh_meta.get(knob)) {
            if b != f {
                eprintln!(
                    "workload mismatch: meta.{knob} is {} in {baseline_path} but {} in {fresh_path}",
                    b.to_json(),
                    f.to_json()
                );
                failures += 1;
            }
        }
    }

    // The table sets are allowed to disagree (the matrix grows over
    // time, and a quick run may drop tables), but the disagreement must
    // be explicit in the output — a silently ungated table looks
    // exactly like a gated-and-passing one.
    let added: Vec<&str> = fresh_tables
        .iter()
        .filter(|(n, _)| !base_tables.iter().any(|(b, _)| b == n))
        .map(|(n, _)| n.as_str())
        .collect();
    let removed: Vec<&str> = base_tables
        .iter()
        .filter(|(n, _)| !fresh_tables.iter().any(|(f, _)| f == n))
        .map(|(n, _)| n.as_str())
        .collect();
    if !added.is_empty() {
        println!(
            "~ {} table(s) only in {fresh_path} (added, not gated): {}",
            added.len(),
            added.join(", ")
        );
    }
    if !removed.is_empty() {
        println!(
            "~ {} table(s) only in {baseline_path} (removed, not gated): {}",
            removed.len(),
            removed.join(", ")
        );
    }

    let mut compared = 0usize;
    let mut skipped_tiny = 0usize;
    let mut notes = 0usize;
    let mut soft = 0usize;
    for (name, base_rows) in &base_tables {
        let Some(fresh_rows) = fresh_tables
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_array())
        else {
            continue;
        };
        let Some(base_rows) = base_rows.as_array() else {
            continue;
        };
        let gone = removed_columns(base_rows, fresh_rows);
        if !gone.is_empty() {
            println!(
                "~ {name}: {} column(s) only in {baseline_path} (removed, not gated): {}",
                gone.len(),
                gone.join(", ")
            );
        }
        let fresh_by_key: Vec<Row<'_>> = fresh_rows.iter().filter_map(decompose).collect();
        let mut gated_cells = 0usize;
        let mut violations = 0usize;
        for base_row in base_rows.iter().filter_map(decompose) {
            let Some(fresh_row) = fresh_by_key.iter().find(|r| r.key == base_row.key) else {
                println!(
                    "~ {name}: row [{}] absent from {fresh_path}: skipped",
                    base_row.key
                );
                continue;
            };
            for &(column, dir, base) in &base_row.metrics {
                let Some(&(_, _, fresh)) = fresh_row
                    .metrics
                    .iter()
                    .find(|(c, d, _)| *c == column && *d == dir)
                else {
                    continue;
                };
                // below the timer floor both numbers are noise
                let floor = if column.ends_with("(s)") { 0.001 } else { 1.0 };
                if base.abs() < floor && fresh.abs() < floor {
                    skipped_tiny += 1;
                    continue;
                }
                compared += 1;
                let beyond = |band: f64| match dir {
                    Direction::HigherIsBetter => fresh < base * (1.0 - band),
                    Direction::LowerIsBetter => fresh > base * (1.0 + band),
                };
                if !gates(column) {
                    if beyond(noise) {
                        notes += 1;
                        println!(
                            "~ note {name} [{}] {column}: {base:.4} -> {fresh:.4} ({:+.1}%; informational, not gated)",
                            base_row.key,
                            (fresh / base - 1.0) * 100.0,
                        );
                    }
                    continue;
                }
                gated_cells += 1;
                // Materiality floor for time cells: a relative band on a
                // one-shot millisecond timing amplifies scheduler jitter
                // into false alarms (a swap pause wobbling 0.5ms -> 2ms is
                // +300% of nothing). A time cell only regresses when the
                // absolute delta is large enough to matter; a genuinely
                // broken path (10ms -> 500ms) clears any sane floor.
                let seconds = if column.ends_with("(ms)") {
                    Some((fresh - base) / 1000.0)
                } else if column.ends_with("(s)") {
                    Some(fresh - base)
                } else {
                    None
                };
                if let Some(delta) = seconds {
                    if delta.abs() < materiality {
                        if beyond(noise) {
                            notes += 1;
                            println!(
                                "~ note {name} [{}] {column}: {base:.4} -> {fresh:.4} ({:+.1}%; below the {:.0}ms materiality floor, not gated)",
                                base_row.key,
                                (fresh / base - 1.0) * 100.0,
                                materiality * 1000.0,
                            );
                        }
                        continue;
                    }
                }
                if beyond(severe) {
                    failures += 1;
                    eprintln!(
                        "SEVERE {name} [{}] {column}: {base:.4} -> {fresh:.4} ({:+.1}%, hard limit ±{:.0}%)",
                        base_row.key,
                        (fresh / base - 1.0) * 100.0,
                        severe * 100.0,
                    );
                } else if beyond(noise) {
                    violations += 1;
                    eprintln!(
                        "REGRESSION {name} [{}] {column}: {base:.4} -> {fresh:.4} ({:+.1}%, noise band ±{:.0}%)",
                        base_row.key,
                        (fresh / base - 1.0) * 100.0,
                        noise * 100.0,
                    );
                }
            }
        }
        // a real slowdown shifts a whole table; isolated flips are noise
        if violations >= 3 && (violations as f64) > systemic * gated_cells as f64 {
            failures += 1;
            eprintln!(
                "SYSTEMIC {name}: {violations}/{gated_cells} gated cell(s) beyond the ±{:.0}% band (limit {:.0}%)",
                noise * 100.0,
                systemic * 100.0,
            );
        } else {
            soft += violations;
        }
    }

    println!(
        "compared {compared} metric cell(s) across {} shared table(s) (noise ±{:.0}%, severe ±{:.0}%, systemic {:.0}%; {} added, {} removed; {skipped_tiny} below the timer floor, {notes} informational note(s), {soft} isolated outlier(s))",
        base_tables.len() - removed.len(),
        noise * 100.0,
        severe * 100.0,
        systemic * 100.0,
        added.len(),
        removed.len(),
    );
    if failures > 0 {
        eprintln!("FAIL: {failures} severe/systemic regression(s) or mismatch(es)");
        std::process::exit(1);
    }
    println!("OK: no severe or systemic regression");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(text: &str) -> Vec<JsonValue> {
        JsonValue::parse(text)
            .unwrap()
            .as_array()
            .expect("a JSON array of rows")
            .to_vec()
    }

    #[test]
    fn baseline_columns_missing_from_the_fresh_run_are_named() {
        let base = rows(
            r#"[{"algo":"dial","btree (s)":"0.2","calendar (s)":"0.1","speedup":"2.0"},
                {"algo":"delta","btree (s)":"0.3","calendar (s)":"0.2","speedup":"1.5"}]"#,
        );
        let fresh = rows(r#"[{"algo":"dial","calendar (s)":"0.1"}]"#);
        assert_eq!(removed_columns(&base, &fresh), ["btree (s)", "speedup"]);
        assert!(
            removed_columns(&fresh, &base).is_empty(),
            "added columns are not removals"
        );
        assert!(removed_columns(&base, &base).is_empty());
    }
}
