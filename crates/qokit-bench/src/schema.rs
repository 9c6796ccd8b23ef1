//! Schema validation for the machine-readable bench records
//! (`BENCH_threads.json`, `BENCH_sweep.json`).
//!
//! CI uploads those files as workflow artifacts; this module is the gate
//! that keeps them trustworthy — a refactor that drops a key, emits a
//! `NaN`, or produces a zero timing fails the `schema_check` binary
//! instead of silently corrupting the repo's performance trajectory. The
//! parser is a minimal dependency-free recursive-descent JSON reader
//! covering the subset the bench binaries emit (objects, arrays, strings
//! without escapes, numbers incl. scientific notation, `null`).

use std::collections::BTreeMap;

/// A parsed JSON value (the subset the bench records use).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (escape-free subset).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys sorted for deterministic inspection.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

/// Parses `text` as JSON.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {pos}, found {:?}",
            b as char,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if b == b'\\' {
            return Err(format!("escape sequences unsupported (byte {pos})"));
        }
        if b == b'"' {
            let s = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|e| format!("invalid utf-8 in string: {e}"))?;
            *pos += 1;
            return Ok(s.to_string());
        }
        *pos += 1;
    }
    Err("unterminated string".into())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    let s = std::str::from_utf8(&bytes[start..*pos]).unwrap_or("");
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("malformed number {s:?} at byte {start}"))
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

// ---------------------------------------------------------------- checks

fn finite_positive(root: &Json, key: &str) -> Result<f64, String> {
    match root.get(key) {
        Some(Json::Num(v)) if v.is_finite() && *v > 0.0 => Ok(*v),
        Some(Json::Num(v)) => Err(format!("\"{key}\" must be finite and positive, got {v}")),
        Some(other) => Err(format!("\"{key}\" must be a number, got {other:?}")),
        None => Err(format!("missing required key \"{key}\"")),
    }
}

/// Like [`finite_positive`] but admits zero — for byte counters where a
/// legitimate measurement can be exactly `0` (the in-process transport
/// moves no wire bytes).
fn finite_non_negative(root: &Json, key: &str) -> Result<f64, String> {
    match root.get(key) {
        Some(Json::Num(v)) if v.is_finite() && *v >= 0.0 => Ok(*v),
        Some(Json::Num(v)) => Err(format!(
            "\"{key}\" must be finite and non-negative, got {v}"
        )),
        Some(other) => Err(format!("\"{key}\" must be a number, got {other:?}")),
        None => Err(format!("missing required key \"{key}\"")),
    }
}

fn non_empty_string(root: &Json, key: &str) -> Result<String, String> {
    match root.get(key) {
        Some(Json::Str(s)) if !s.is_empty() => Ok(s.clone()),
        other => Err(format!(
            "\"{key}\" must be a non-empty string, got {other:?}"
        )),
    }
}

/// Validates a bench record produced by `abl_threads` or `abl_sweep`:
/// the required keys exist and every measured quantity is a finite,
/// strictly positive number. For `abl_sweep` additionally requires exactly
/// one `points-par` and one `kernels-par` mode row, and no other mode.
pub fn validate_bench_json(text: &str) -> Result<String, String> {
    let root = parse(text)?;
    let bench = non_empty_string(&root, "bench")?;
    match bench.as_str() {
        "abl_threads" => {
            for key in [
                "n_qubits",
                "hw_threads",
                "reps",
                "serial_seconds",
                "best_speedup",
            ] {
                finite_positive(&root, key)?;
            }
            let pools = match root.get("pools") {
                Some(Json::Arr(rows)) if !rows.is_empty() => rows,
                other => {
                    return Err(format!(
                        "\"pools\" must be a non-empty array, got {other:?}"
                    ))
                }
            };
            for (i, row) in pools.iter().enumerate() {
                for key in ["threads", "seconds", "speedup_vs_serial"] {
                    finite_positive(row, key).map_err(|e| format!("pools[{i}]: {e}"))?;
                }
            }
        }
        "abl_sweep" => {
            for key in [
                "n_qubits",
                "p",
                "points",
                "hw_threads",
                "pool_width",
                "reps",
                "sequential_seconds",
                "sequential_points_per_sec",
                "best_speedup",
            ] {
                finite_positive(&root, key)?;
            }
            let modes = match root.get("modes") {
                Some(Json::Arr(rows)) if !rows.is_empty() => rows,
                other => {
                    return Err(format!(
                        "\"modes\" must be a non-empty array, got {other:?}"
                    ))
                }
            };
            let mut seen = Vec::new();
            for (i, row) in modes.iter().enumerate() {
                let mode = non_empty_string(row, "mode").map_err(|e| format!("modes[{i}]: {e}"))?;
                for key in ["seconds", "points_per_sec", "speedup_vs_sequential"] {
                    finite_positive(row, key).map_err(|e| format!("modes[{i}]: {e}"))?;
                }
                if !matches!(mode.as_str(), "points-par" | "kernels-par") {
                    return Err(format!(
                        "modes[{i}]: unknown mode {mode:?} (expected points-par or kernels-par)"
                    ));
                }
                if seen.contains(&mode) {
                    return Err(format!("modes[{i}]: duplicate {mode:?} row"));
                }
                seen.push(mode);
            }
            if seen.len() != 2 {
                return Err(format!(
                    "\"modes\" must hold one points-par and one kernels-par row, got {seen:?}"
                ));
            }
        }
        "abl_landscape" => {
            for key in [
                "n_qubits",
                "p",
                "points",
                "grid_steps",
                "hw_threads",
                "pool_width",
                "reps",
                "chunk",
                "top_k",
                "sequential_seconds",
                "sequential_points_per_sec",
                "best_speedup",
            ] {
                finite_positive(&root, key)?;
            }
            let ranks = match root.get("ranks") {
                Some(Json::Arr(rows)) if !rows.is_empty() => rows,
                other => {
                    return Err(format!(
                        "\"ranks\" must be a non-empty array, got {other:?}"
                    ))
                }
            };
            for (i, row) in ranks.iter().enumerate() {
                for key in [
                    "ranks",
                    "seconds",
                    "points_per_sec",
                    "speedup_vs_sequential",
                ] {
                    finite_positive(row, key).map_err(|e| format!("ranks[{i}]: {e}"))?;
                }
                match row.get("ranks") {
                    Some(Json::Num(k)) if k.fract() == 0.0 && *k >= 1.0 => {}
                    other => {
                        return Err(format!(
                            "ranks[{i}]: rank count must be a positive integer, got {other:?}"
                        ))
                    }
                }
            }
        }
        "abl_lightcone" => {
            for key in [
                "n_vertices",
                "edges",
                "degree",
                "hw_threads",
                "pool_width",
                "reps",
                "best_hit_rate",
                "dedup_speedup",
            ] {
                finite_positive(&root, key)?;
            }
            match root.get("energies_bit_identical") {
                Some(Json::Bool(true)) => {}
                Some(Json::Bool(false)) => {
                    return Err(
                        "\"energies_bit_identical\" is false: dedup moved the energy".into(),
                    )
                }
                other => {
                    return Err(format!(
                        "\"energies_bit_identical\" must be a boolean, got {other:?}"
                    ))
                }
            }
            let runs = match root.get("runs") {
                Some(Json::Arr(rows)) if !rows.is_empty() => rows,
                other => return Err(format!("\"runs\" must be a non-empty array, got {other:?}")),
            };
            let (mut has_on, mut has_off) = (false, false);
            for (i, row) in runs.iter().enumerate() {
                let dedup =
                    non_empty_string(row, "dedup").map_err(|e| format!("runs[{i}]: {e}"))?;
                for key in ["p", "seconds", "edges_per_sec"] {
                    finite_positive(row, key).map_err(|e| format!("runs[{i}]: {e}"))?;
                }
                match dedup.as_str() {
                    "on" => {
                        finite_positive(row, "unique_cones")
                            .map_err(|e| format!("runs[{i}] (dedup on): {e}"))?;
                        finite_positive(row, "hit_rate")
                            .map_err(|e| format!("runs[{i}] (dedup on): {e}"))?;
                        has_on = true;
                    }
                    "off" => has_off = true,
                    other => {
                        return Err(format!(
                            "runs[{i}]: \"dedup\" must be \"on\" or \"off\", got \"{other}\""
                        ))
                    }
                }
            }
            if !has_on || !has_off {
                return Err(
                    "need both a dedup-on and a dedup-off run: the cache ablation went unmeasured"
                        .into(),
                );
            }
        }
        "abl_transport" => {
            for key in [
                "n_qubits",
                "p",
                "points",
                "grid_steps",
                "hw_threads",
                "pool_width",
                "reps",
                "chunk",
                "top_k",
            ] {
                finite_positive(&root, key)?;
            }
            match root.get("aggregates_bit_identical") {
                Some(Json::Bool(true)) => {}
                Some(Json::Bool(false)) => {
                    return Err(
                        "\"aggregates_bit_identical\" is false: a transport moved the bits".into(),
                    )
                }
                other => {
                    return Err(format!(
                        "\"aggregates_bit_identical\" must be a boolean, got {other:?}"
                    ))
                }
            }
            let rows = match root.get("transports") {
                Some(Json::Arr(rows)) if !rows.is_empty() => rows,
                other => {
                    return Err(format!(
                        "\"transports\" must be a non-empty array, got {other:?}"
                    ))
                }
            };
            let (mut has_in_process, mut has_tcp) = (false, false);
            for (i, row) in rows.iter().enumerate() {
                let kind = non_empty_string(row, "transport")
                    .map_err(|e| format!("transports[{i}]: {e}"))?;
                for key in ["ranks", "seconds", "points_per_sec"] {
                    finite_positive(row, key).map_err(|e| format!("transports[{i}]: {e}"))?;
                }
                let bytes = finite_non_negative(row, "wire_bytes")
                    .map_err(|e| format!("transports[{i}]: {e}"))?;
                match kind.as_str() {
                    "in_process" => has_in_process = true,
                    "tcp" => {
                        if bytes == 0.0 {
                            return Err(format!(
                                "transports[{i}]: a tcp run reports zero wire bytes — nothing \
                                 left the process"
                            ));
                        }
                        has_tcp = true;
                    }
                    other => {
                        return Err(format!(
                            "transports[{i}]: \"transport\" must be \"in_process\" or \"tcp\", \
                             got \"{other}\""
                        ))
                    }
                }
            }
            if !has_in_process || !has_tcp {
                return Err(
                    "need both an in_process and a tcp run: the transport ablation went unmeasured"
                        .into(),
                );
            }
        }
        "abl_layout" => {
            for key in ["n_qubits", "hw_threads", "reps", "best_speedup"] {
                finite_positive(&root, key)?;
            }
            non_empty_string(&root, "layout_baseline")?;
            non_empty_string(&root, "kernel_isa")?;
            let kernels = match root.get("kernels") {
                Some(Json::Arr(rows)) if !rows.is_empty() => rows,
                other => {
                    return Err(format!(
                        "\"kernels\" must be a non-empty array, got {other:?}"
                    ))
                }
            };
            for (i, row) in kernels.iter().enumerate() {
                non_empty_string(row, "kernel").map_err(|e| format!("kernels[{i}]: {e}"))?;
                for key in ["interleaved_seconds", "split_seconds", "speedup"] {
                    finite_positive(row, key).map_err(|e| format!("kernels[{i}]: {e}"))?;
                }
            }
        }
        "abl_tn" => {
            for key in [
                "n_qubits",
                "p",
                "amplitudes",
                "hw_threads",
                "pool_width",
                "reps",
                "greedy_seconds",
                "planned_seconds",
                "plan_width",
                "greedy_width",
            ] {
                finite_positive(&root, key)?;
            }
            // planned ordering slower than greedy means the plan-once/
            // execute-many amortization regressed; the gate fails loudly.
            let speedup = finite_positive(&root, "planned_speedup")?;
            if speedup < 1.0 {
                return Err(format!(
                    "\"planned_speedup\" is {speedup}: planned ordering must not be slower \
                     than greedy per-call contraction"
                ));
            }
            match root.get("slices_bit_identical") {
                Some(Json::Bool(true)) => {}
                Some(Json::Bool(false)) => {
                    return Err(
                        "\"slices_bit_identical\" is false: the slice pool moved the bits".into(),
                    )
                }
                other => {
                    return Err(format!(
                        "\"slices_bit_identical\" must be a boolean, got {other:?}"
                    ))
                }
            }
            let rows = match root.get("slices") {
                Some(Json::Arr(rows)) if !rows.is_empty() => rows,
                other => {
                    return Err(format!(
                        "\"slices\" must be a non-empty array, got {other:?}"
                    ))
                }
            };
            for (i, row) in rows.iter().enumerate() {
                for key in ["workers", "seconds", "amps_per_sec", "n_slices"] {
                    finite_positive(row, key).map_err(|e| format!("slices[{i}]: {e}"))?;
                }
                // slicing overhead < 1 would mean slicing did less work
                // than the unsliced plan — a bookkeeping bug.
                let overhead =
                    finite_positive(row, "overhead").map_err(|e| format!("slices[{i}]: {e}"))?;
                if overhead < 1.0 {
                    return Err(format!(
                        "slices[{i}]: \"overhead\" is {overhead}, but sliced work can never \
                         be less than unsliced work"
                    ));
                }
            }
        }
        "abl_serve" => {
            for key in [
                "n_qubits",
                "hw_threads",
                "pool_width",
                "lanes",
                "queue_capacity",
                "reps",
                "cold_seconds",
                "warm_seconds",
            ] {
                finite_positive(&root, key)?;
            }
            // warm >= cold would be a cache that costs more than it saves;
            // the run records the ratio so regressions are visible in CI.
            let speedup = finite_positive(&root, "warm_speedup")?;
            if speedup < 1.0 {
                return Err(format!(
                    "\"warm_speedup\" is {speedup}: a cache hit must not be slower than a \
                     cold build"
                ));
            }
            let rows = match root.get("queue_depths") {
                Some(Json::Arr(rows)) if !rows.is_empty() => rows,
                other => {
                    return Err(format!(
                        "\"queue_depths\" must be a non-empty array, got {other:?}"
                    ))
                }
            };
            for (i, row) in rows.iter().enumerate() {
                for key in ["depth", "jobs", "seconds", "jobs_per_sec"] {
                    finite_positive(row, key).map_err(|e| format!("queue_depths[{i}]: {e}"))?;
                }
            }
        }
        other => return Err(format!("unknown bench kind \"{other}\"")),
    }
    Ok(bench)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_emitted_subset() {
        let v = parse(r#"{"a": 1.5e-3, "b": [1, 2], "c": "x", "d": null}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Num(1.5e-3)));
        assert_eq!(v.get("c"), Some(&Json::Str("x".into())));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert!(matches!(v.get("b"), Some(Json::Arr(items)) if items.len() == 2));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2] trailing").is_err());
        assert!(parse(r#"{"a": 1e}"#).is_err());
    }

    fn sweep_fixture(modes: &str) -> String {
        format!(
            r#"{{"bench": "abl_sweep", "n_qubits": 10, "p": 4, "points": 12,
                "hw_threads": 1, "pool_width": 4, "reps": 2,
                "sequential_seconds": 1.0e-2, "sequential_points_per_sec": 1200.0,
                "best_speedup": 1.01, "modes": [{modes}]}}"#
        )
    }

    const POINTS_ROW: &str = r#"{"mode": "points-par", "seconds": 1.0e-2,
        "points_per_sec": 1200.0, "speedup_vs_sequential": 1.01}"#;

    const KERNELS_ROW: &str = r#"{"mode": "kernels-par", "seconds": 1.2e-2,
        "points_per_sec": 1000.0, "speedup_vs_sequential": 0.84}"#;

    fn both_modes(points_row: &str) -> String {
        sweep_fixture(&format!("{points_row}, {KERNELS_ROW}"))
    }

    #[test]
    fn accepts_a_valid_sweep_record() {
        assert_eq!(
            validate_bench_json(&both_modes(POINTS_ROW)).unwrap(),
            "abl_sweep"
        );
    }

    #[test]
    fn sweep_requires_exactly_the_two_nesting_modes() {
        // A record missing kernels-par is rejected...
        let err = validate_bench_json(&sweep_fixture(POINTS_ROW)).unwrap_err();
        assert!(err.contains("kernels-par"), "{err}");
        // ...as is a duplicated mode...
        let err = validate_bench_json(&sweep_fixture(&format!("{POINTS_ROW}, {POINTS_ROW}")))
            .unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        // ...and any mode beyond the two, such as a split row.
        let split = r#"{"mode": "split", "shape": "2x2", "seconds": 1.0e-2,
            "points_per_sec": 1200.0, "speedup_vs_sequential": 1.01}"#;
        let err = validate_bench_json(&both_modes(&format!("{POINTS_ROW}, {split}"))).unwrap_err();
        assert!(err.contains("split"), "{err}");
    }

    #[test]
    fn rejects_non_finite_and_non_positive_numbers() {
        for bad in ["0.0", "-1.0", "\"fast\""] {
            let row = POINTS_ROW.replace("\"seconds\": 1.0e-2", &format!("\"seconds\": {bad}"));
            let err = validate_bench_json(&both_modes(&row)).unwrap_err();
            assert!(err.contains("seconds"), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_missing_keys() {
        let row = POINTS_ROW.replace("\"points_per_sec\": 1200.0, ", "");
        let err = validate_bench_json(&both_modes(&row)).unwrap_err();
        assert!(err.contains("points_per_sec"), "{err}");
    }

    fn landscape_fixture(ranks: &str) -> String {
        format!(
            r#"{{"bench": "abl_landscape", "n_qubits": 8, "p": 1, "points": 1048576,
                "grid_steps": 1024, "hw_threads": 1, "pool_width": 4, "reps": 3,
                "chunk": 4096, "top_k": 16, "sequential_seconds": 2.5,
                "sequential_points_per_sec": 419430.4, "best_speedup": 1.02,
                "ranks": [{ranks}]}}"#
        )
    }

    const GOOD_RANK_ROW: &str = r#"{"ranks": 2, "seconds": 2.4,
        "points_per_sec": 436906.0, "speedup_vs_sequential": 1.02}"#;

    #[test]
    fn accepts_a_valid_landscape_record() {
        assert_eq!(
            validate_bench_json(&landscape_fixture(GOOD_RANK_ROW)).unwrap(),
            "abl_landscape"
        );
    }

    #[test]
    fn landscape_rejects_empty_rank_sweep_and_bad_counts() {
        let err = validate_bench_json(&landscape_fixture("")).unwrap_err();
        assert!(err.contains("ranks"), "{err}");
        let fractional = GOOD_RANK_ROW.replace("\"ranks\": 2", "\"ranks\": 2.5");
        let err = validate_bench_json(&landscape_fixture(&fractional)).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        let nan = GOOD_RANK_ROW.replace("\"points_per_sec\": 436906.0", "\"points_per_sec\": NaN");
        assert!(validate_bench_json(&landscape_fixture(&nan)).is_err());
    }

    #[test]
    fn landscape_rejects_missing_throughput() {
        let missing = landscape_fixture(GOOD_RANK_ROW)
            .replace("\"sequential_points_per_sec\": 419430.4,", "");
        let err = validate_bench_json(&missing).unwrap_err();
        assert!(err.contains("sequential_points_per_sec"), "{err}");
    }

    fn lightcone_fixture(runs: &str) -> String {
        format!(
            r#"{{"bench": "abl_lightcone", "n_vertices": 666666, "edges": 999999,
                "degree": 3, "hw_threads": 4, "pool_width": 4, "reps": 3,
                "best_hit_rate": 0.9999, "dedup_speedup": 12.5,
                "energies_bit_identical": true, "runs": [{runs}]}}"#
        )
    }

    const GOOD_LIGHTCONE_ROWS: &str = r#"
        {"dedup": "off", "p": 1, "seconds": 4.1, "edges_per_sec": 243902.2},
        {"dedup": "on", "p": 1, "seconds": 0.33, "edges_per_sec": 3030300.0,
         "unique_cones": 2, "hit_rate": 0.9999}"#;

    #[test]
    fn accepts_a_valid_lightcone_record() {
        assert_eq!(
            validate_bench_json(&lightcone_fixture(GOOD_LIGHTCONE_ROWS)).unwrap(),
            "abl_lightcone"
        );
    }

    #[test]
    fn lightcone_requires_both_cache_modes() {
        let on_only = r#"{"dedup": "on", "p": 1, "seconds": 0.33,
            "edges_per_sec": 3030300.0, "unique_cones": 2, "hit_rate": 0.9999}"#;
        let err = validate_bench_json(&lightcone_fixture(on_only)).unwrap_err();
        assert!(err.contains("dedup-off"), "{err}");
        let off_only = r#"{"dedup": "off", "p": 1, "seconds": 4.1, "edges_per_sec": 243902.2}"#;
        let err = validate_bench_json(&lightcone_fixture(off_only)).unwrap_err();
        assert!(err.contains("dedup-on"), "{err}");
    }

    #[test]
    fn lightcone_rejects_diverged_energies_and_missing_cache_stats() {
        let diverged = lightcone_fixture(GOOD_LIGHTCONE_ROWS).replace(
            "\"energies_bit_identical\": true",
            "\"energies_bit_identical\": false",
        );
        let err = validate_bench_json(&diverged).unwrap_err();
        assert!(err.contains("dedup moved the energy"), "{err}");
        let no_hits = lightcone_fixture(GOOD_LIGHTCONE_ROWS).replace(", \"hit_rate\": 0.9999", "");
        let err = validate_bench_json(&no_hits).unwrap_err();
        assert!(err.contains("hit_rate"), "{err}");
    }

    fn transport_fixture(rows: &str) -> String {
        format!(
            r#"{{"bench": "abl_transport", "n_qubits": 8, "p": 1, "points": 65536,
                "grid_steps": 256, "hw_threads": 4, "pool_width": 4, "reps": 3,
                "chunk": 1024, "top_k": 16, "aggregates_bit_identical": true,
                "transports": [{rows}]}}"#
        )
    }

    const GOOD_TRANSPORT_ROWS: &str = r#"
        {"transport": "in_process", "ranks": 2, "seconds": 1.1,
         "points_per_sec": 59578.2, "wire_bytes": 0},
        {"transport": "tcp", "ranks": 2, "seconds": 1.3,
         "points_per_sec": 50412.3, "wire_bytes": 2097152}"#;

    #[test]
    fn accepts_a_valid_transport_record() {
        assert_eq!(
            validate_bench_json(&transport_fixture(GOOD_TRANSPORT_ROWS)).unwrap(),
            "abl_transport"
        );
    }

    #[test]
    fn transport_requires_both_impls_and_real_tcp_traffic() {
        let in_process_only = r#"{"transport": "in_process", "ranks": 2, "seconds": 1.1,
            "points_per_sec": 59578.2, "wire_bytes": 0}"#;
        let err = validate_bench_json(&transport_fixture(in_process_only)).unwrap_err();
        assert!(err.contains("tcp"), "{err}");
        let silent_tcp =
            GOOD_TRANSPORT_ROWS.replace("\"wire_bytes\": 2097152", "\"wire_bytes\": 0");
        let err = validate_bench_json(&transport_fixture(&silent_tcp)).unwrap_err();
        assert!(err.contains("zero wire bytes"), "{err}");
        let negative = GOOD_TRANSPORT_ROWS.replace("\"wire_bytes\": 2097152", "\"wire_bytes\": -1");
        let err = validate_bench_json(&transport_fixture(&negative)).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
    }

    #[test]
    fn transport_rejects_diverged_aggregates() {
        let diverged = transport_fixture(GOOD_TRANSPORT_ROWS).replace(
            "\"aggregates_bit_identical\": true",
            "\"aggregates_bit_identical\": false",
        );
        let err = validate_bench_json(&diverged).unwrap_err();
        assert!(err.contains("moved the bits"), "{err}");
    }

    fn layout_fixture(kernels: &str) -> String {
        format!(
            r#"{{"bench": "abl_layout", "n_qubits": 18, "hw_threads": 1, "reps": 3,
                "layout_baseline": "interleaved", "kernel_isa": "avx2", "best_speedup": 1.31,
                "kernels": [{kernels}]}}"#
        )
    }

    const GOOD_LAYOUT_ROW: &str = r#"{"kernel": "fwht", "interleaved_seconds": 2.1e-3,
        "split_seconds": 1.6e-3, "speedup": 1.31}"#;

    #[test]
    fn accepts_a_valid_layout_record() {
        assert_eq!(
            validate_bench_json(&layout_fixture(GOOD_LAYOUT_ROW)).unwrap(),
            "abl_layout"
        );
    }

    #[test]
    fn layout_rejects_missing_kernels_and_bad_speedup() {
        let err = validate_bench_json(&layout_fixture("")).unwrap_err();
        assert!(err.contains("kernels"), "{err}");
        let bad_row = GOOD_LAYOUT_ROW.replace("\"speedup\": 1.31", "\"speedup\": 0.0");
        let err = validate_bench_json(&layout_fixture(&bad_row)).unwrap_err();
        assert!(err.contains("speedup"), "{err}");
    }

    #[test]
    fn layout_requires_the_kernel_isa() {
        let record = layout_fixture(GOOD_LAYOUT_ROW);
        let err =
            validate_bench_json(&record.replace(r#""kernel_isa": "avx2", "#, "")).unwrap_err();
        assert!(err.contains("kernel_isa"), "{err}");
        let err = validate_bench_json(&record.replace(r#""avx2""#, r#""""#)).unwrap_err();
        assert!(err.contains("kernel_isa"), "{err}");
    }

    fn tn_fixture(slices: &str) -> String {
        format!(
            r#"{{"bench": "abl_tn", "n_qubits": 20, "p": 2, "amplitudes": 64,
                "hw_threads": 4, "pool_width": 4, "reps": 5,
                "greedy_seconds": 3.2e-1, "planned_seconds": 1.1e-1,
                "planned_speedup": 2.9, "plan_width": 6, "greedy_width": 7,
                "slices_bit_identical": true, "slices": [{slices}]}}"#
        )
    }

    const GOOD_TN_SLICES: &str = r#"
        {"workers": 1, "seconds": 1.4e-1, "amps_per_sec": 457.1,
         "n_slices": 2, "overhead": 1.12},
        {"workers": 2, "seconds": 0.9e-1, "amps_per_sec": 711.1,
         "n_slices": 2, "overhead": 1.12},
        {"workers": 4, "seconds": 0.8e-1, "amps_per_sec": 800.0,
         "n_slices": 2, "overhead": 1.12}"#;

    #[test]
    fn accepts_a_valid_tn_record() {
        assert_eq!(
            validate_bench_json(&tn_fixture(GOOD_TN_SLICES)).unwrap(),
            "abl_tn"
        );
    }

    #[test]
    fn tn_rejects_a_plan_slower_than_greedy() {
        let bad = tn_fixture(GOOD_TN_SLICES)
            .replace("\"planned_speedup\": 2.9", "\"planned_speedup\": 0.7");
        let err = validate_bench_json(&bad).unwrap_err();
        assert!(err.contains("planned_speedup"), "{err}");
    }

    #[test]
    fn tn_rejects_diverged_slices_and_impossible_overhead() {
        let diverged = tn_fixture(GOOD_TN_SLICES).replace(
            "\"slices_bit_identical\": true",
            "\"slices_bit_identical\": false",
        );
        let err = validate_bench_json(&diverged).unwrap_err();
        assert!(err.contains("moved the bits"), "{err}");
        let free_lunch =
            tn_fixture(&GOOD_TN_SLICES.replacen("\"overhead\": 1.12", "\"overhead\": 0.5", 1));
        let err = validate_bench_json(&free_lunch).unwrap_err();
        assert!(err.contains("unsliced work"), "{err}");
    }

    #[test]
    fn tn_rejects_missing_slice_rows_and_widths() {
        let err = validate_bench_json(&tn_fixture("")).unwrap_err();
        assert!(err.contains("slices"), "{err}");
        let no_width = tn_fixture(GOOD_TN_SLICES).replace("\"plan_width\": 6, ", "");
        let err = validate_bench_json(&no_width).unwrap_err();
        assert!(err.contains("plan_width"), "{err}");
    }

    fn serve_fixture(depths: &str) -> String {
        format!(
            r#"{{"bench": "abl_serve", "n_qubits": 16, "hw_threads": 4,
                "pool_width": 4, "lanes": 2, "queue_capacity": 64, "reps": 5,
                "cold_seconds": 4.1e-2, "warm_seconds": 1.7e-2,
                "warm_speedup": 2.41, "queue_depths": [{depths}]}}"#
        )
    }

    const GOOD_SERVE_DEPTHS: &str = r#"
        {"depth": 1, "jobs": 96, "seconds": 1.7, "jobs_per_sec": 56.4},
        {"depth": 4, "jobs": 96, "seconds": 0.9, "jobs_per_sec": 106.6},
        {"depth": 16, "jobs": 96, "seconds": 0.8, "jobs_per_sec": 120.0}"#;

    #[test]
    fn accepts_a_valid_serve_record() {
        assert_eq!(
            validate_bench_json(&serve_fixture(GOOD_SERVE_DEPTHS)).unwrap(),
            "abl_serve"
        );
    }

    #[test]
    fn rejects_a_cache_slower_than_cold() {
        let bad = serve_fixture(GOOD_SERVE_DEPTHS)
            .replace("\"warm_speedup\": 2.41", "\"warm_speedup\": 0.8");
        let err = validate_bench_json(&bad).unwrap_err();
        assert!(err.contains("warm_speedup"), "{err}");
    }

    #[test]
    fn rejects_serve_records_missing_depths_or_rates() {
        let err = validate_bench_json(&serve_fixture("")).unwrap_err();
        assert!(err.contains("queue_depths"), "{err}");
        let bad_row = GOOD_SERVE_DEPTHS.replace("\"jobs_per_sec\": 56.4", "\"jobs_per_sec\": 0.0");
        let err = validate_bench_json(&serve_fixture(&bad_row)).unwrap_err();
        assert!(err.contains("jobs_per_sec"), "{err}");
    }

    #[test]
    fn validates_threads_records_too() {
        let good = r#"{"bench": "abl_threads", "n_qubits": 20, "hw_threads": 1,
            "reps": 5, "serial_seconds": 7.5e-2, "best_speedup": 0.91,
            "pools": [{"threads": 1, "seconds": 8.2e-2, "speedup_vs_serial": 0.91}]}"#;
        assert_eq!(validate_bench_json(good).unwrap(), "abl_threads");
        let err = validate_bench_json(&good.replace("0.91", "NaN")).unwrap_err();
        assert!(!err.is_empty());
    }
}
