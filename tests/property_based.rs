//! Randomized property tests over the full SQL pipeline and the
//! analytics operators, checking invariants against naive reference
//! computations.
//!
//! Inputs are drawn from a seeded [`StdRng`], so every run replays the
//! same cases deterministically (the offline stand-in for proptest).

use hylite::{Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run `body` over `cases` deterministic random cases.
fn for_cases(seed: u64, cases: usize, mut body: impl FnMut(&mut StdRng)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..cases {
        body(&mut rng);
    }
}

/// A random `(a BIGINT, b DOUBLE)` row set of size 0..120.
fn small_rows(rng: &mut StdRng) -> Vec<(i64, f64)> {
    let n = rng.gen_range(0usize..120);
    (0..n)
        .map(|_| (rng.gen_range(-50i64..50), rng.gen_range(-100.0f64..100.0)))
        .collect()
}

/// Build a database with table `t(a BIGINT, b DOUBLE)` holding `rows`.
fn db_with(rows: &[(i64, f64)]) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (a BIGINT, b DOUBLE)").unwrap();
    if !rows.is_empty() {
        let values: Vec<String> = rows.iter().map(|(a, b)| format!("({a}, {b})")).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(",")))
            .unwrap();
    }
    db
}

#[test]
fn filter_matches_reference() {
    for_cases(0xF117, 48, |rng| {
        let rows = small_rows(rng);
        let threshold = rng.gen_range(-50i64..50);
        let db = db_with(&rows);
        let r = db
            .execute(&format!("SELECT count(*) FROM t WHERE a > {threshold}"))
            .unwrap();
        let expect = rows.iter().filter(|(a, _)| *a > threshold).count() as i64;
        assert_eq!(r.scalar().unwrap(), Value::Int(expect));
    });
}

#[test]
fn aggregates_match_reference() {
    for_cases(0xA66, 48, |rng| {
        let rows = small_rows(rng);
        let db = db_with(&rows);
        let r = db
            .execute("SELECT count(*), sum(a), avg(b) FROM t")
            .unwrap();
        let row = &r.to_rows()[0];
        assert_eq!(row.values()[0].clone(), Value::Int(rows.len() as i64));
        if rows.is_empty() {
            assert!(row.values()[1].is_null());
            assert!(row.values()[2].is_null());
        } else {
            let sum: i64 = rows.iter().map(|(a, _)| a).sum();
            assert_eq!(row.values()[1].clone(), Value::Int(sum));
            let avg: f64 = rows.iter().map(|(_, b)| b).sum::<f64>() / rows.len() as f64;
            let got = row.float(2).unwrap();
            assert!((got - avg).abs() < 1e-6 * avg.abs().max(1.0));
        }
    });
}

#[test]
fn group_by_partitions_input() {
    for_cases(0x6B, 48, |rng| {
        let rows = small_rows(rng);
        let db = db_with(&rows);
        let r = db
            .execute("SELECT a % 5, count(*) FROM t GROUP BY a % 5")
            .unwrap();
        let total: i64 = r.to_rows().iter().map(|row| row.int(1).unwrap()).sum();
        assert_eq!(total, rows.len() as i64, "group sizes sum to input size");
    });
}

#[test]
fn order_by_sorts() {
    for_cases(0x50F7, 48, |rng| {
        let rows = small_rows(rng);
        let db = db_with(&rows);
        let r = db.execute("SELECT a FROM t ORDER BY a").unwrap();
        let got: Vec<i64> = r.to_rows().iter().map(|row| row.int(0).unwrap()).collect();
        let mut expect: Vec<i64> = rows.iter().map(|(a, _)| *a).collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    });
}

#[test]
fn limit_offset_window() {
    for_cases(0x11517, 48, |rng| {
        let rows = small_rows(rng);
        let limit = rng.gen_range(0usize..20);
        let offset = rng.gen_range(0usize..20);
        let db = db_with(&rows);
        let r = db
            .execute(&format!(
                "SELECT a FROM t ORDER BY a LIMIT {limit} OFFSET {offset}"
            ))
            .unwrap();
        let mut expect: Vec<i64> = rows.iter().map(|(a, _)| *a).collect();
        expect.sort_unstable();
        let expect: Vec<i64> = expect.into_iter().skip(offset).take(limit).collect();
        let got: Vec<i64> = r.to_rows().iter().map(|row| row.int(0).unwrap()).collect();
        assert_eq!(got, expect);
    });
}

#[test]
fn distinct_is_set_semantics() {
    for_cases(0xD157, 48, |rng| {
        let rows = small_rows(rng);
        let db = db_with(&rows);
        let r = db.execute("SELECT DISTINCT a FROM t").unwrap();
        let got: std::collections::BTreeSet<i64> =
            r.to_rows().iter().map(|row| row.int(0).unwrap()).collect();
        let expect: std::collections::BTreeSet<i64> = rows.iter().map(|(a, _)| *a).collect();
        assert_eq!(got.len(), r.row_count(), "no duplicates");
        assert_eq!(got, expect);
    });
}

#[test]
fn join_matches_reference() {
    for_cases(0x101, 48, |rng| {
        let left: Vec<i64> = (0..rng.gen_range(0usize..40))
            .map(|_| rng.gen_range(-10i64..10))
            .collect();
        let right: Vec<i64> = (0..rng.gen_range(0usize..40))
            .map(|_| rng.gen_range(-10i64..10))
            .collect();
        let db = Database::new();
        db.execute("CREATE TABLE l (k BIGINT)").unwrap();
        db.execute("CREATE TABLE r (k BIGINT)").unwrap();
        if !left.is_empty() {
            let v: Vec<String> = left.iter().map(|k| format!("({k})")).collect();
            db.execute(&format!("INSERT INTO l VALUES {}", v.join(",")))
                .unwrap();
        }
        if !right.is_empty() {
            let v: Vec<String> = right.iter().map(|k| format!("({k})")).collect();
            db.execute(&format!("INSERT INTO r VALUES {}", v.join(",")))
                .unwrap();
        }
        let res = db
            .execute("SELECT count(*) FROM l JOIN r ON l.k = r.k")
            .unwrap();
        let expect: i64 = left
            .iter()
            .map(|a| right.iter().filter(|b| *b == a).count() as i64)
            .sum();
        assert_eq!(res.scalar().unwrap(), Value::Int(expect));
    });
}

#[test]
fn union_all_concatenates() {
    for_cases(0x0A11, 48, |rng| {
        let rows = small_rows(rng);
        let db = db_with(&rows);
        let r = db
            .execute("SELECT a FROM t UNION ALL SELECT a FROM t")
            .unwrap();
        assert_eq!(r.row_count(), rows.len() * 2);
    });
}

#[test]
fn iterate_equals_manual_loop() {
    for_cases(0x17E7, 48, |rng| {
        let start = rng.gen_range(-20i64..20);
        let step = rng.gen_range(1i64..7);
        let bound = rng.gen_range(0i64..100);
        let db = Database::new();
        let r = db
            .execute(&format!(
                "SELECT * FROM ITERATE ((SELECT {start} AS x), \
                 (SELECT x + {step} FROM iterate), \
                 (SELECT x FROM iterate WHERE x >= {bound}))"
            ))
            .unwrap();
        let mut x = start;
        while x < bound {
            x += step;
        }
        assert_eq!(r.scalar().unwrap(), Value::Int(x));
    });
}

#[test]
fn kmeans_invariants() {
    for_cases(0x63A5, 24, |rng| {
        let n = rng.gen_range(4usize..80);
        let xs: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(-100.0f64..100.0),
                    rng.gen_range(-100.0f64..100.0),
                )
            })
            .collect();
        let k = rng.gen_range(1usize..4);
        let db = Database::new();
        db.execute("CREATE TABLE p (x DOUBLE, y DOUBLE)").unwrap();
        let v: Vec<String> = xs.iter().map(|(x, y)| format!("({x}, {y})")).collect();
        db.execute(&format!("INSERT INTO p VALUES {}", v.join(",")))
            .unwrap();
        let r = db
            .execute(&format!(
                "SELECT * FROM KMEANS((SELECT x, y FROM p), \
                 (SELECT x, y FROM p LIMIT {k}), 20)"
            ))
            .unwrap();
        // k centers; sizes sum to n.
        assert_eq!(r.row_count(), k);
        let sizes: i64 = (0..k)
            .map(|i| r.value(i, 3).unwrap().as_int().unwrap())
            .sum();
        assert_eq!(sizes, xs.len() as i64);
        // Assignment invariant: every point's nearest center (L2) is the
        // one KMEANS_ASSIGN reports.
        let centers: Vec<(f64, f64)> = (0..k)
            .map(|i| {
                (
                    r.value(i, 1).unwrap().as_float().unwrap(),
                    r.value(i, 2).unwrap().as_float().unwrap(),
                )
            })
            .collect();
        let centers_sql: Vec<String> = centers
            .iter()
            .map(|(x, y)| format!("SELECT {x} AS x, {y} AS y"))
            .collect();
        let assign = db
            .execute(&format!(
                "SELECT * FROM KMEANS_ASSIGN((SELECT x, y FROM p), ({}))",
                centers_sql.join(" UNION ALL ")
            ))
            .unwrap();
        for row in assign.to_rows() {
            let (px, py) = (row.float(0).unwrap(), row.float(1).unwrap());
            let got = row.int(2).unwrap() as usize;
            let d2 = |(cx, cy): (f64, f64)| (px - cx).powi(2) + (py - cy).powi(2);
            let best = centers.iter().map(|&c| d2(c)).fold(f64::INFINITY, f64::min);
            assert!(
                d2(centers[got]) <= best + 1e-9,
                "({px},{py}) assigned to non-nearest center"
            );
        }
    });
}

#[test]
fn pagerank_sums_to_one() {
    for_cases(0x9A6E, 24, |rng| {
        let m = rng.gen_range(1usize..120);
        let edges: Vec<(i64, i64)> = (0..m)
            .map(|_| (rng.gen_range(0i64..25), rng.gen_range(0i64..25)))
            .collect();
        let db = Database::new();
        db.execute("CREATE TABLE e (s BIGINT, d BIGINT)").unwrap();
        let v: Vec<String> = edges.iter().map(|(s, d)| format!("({s}, {d})")).collect();
        db.execute(&format!("INSERT INTO e VALUES {}", v.join(",")))
            .unwrap();
        let r = db
            .execute("SELECT sum(pr.rank) FROM PAGERANK((SELECT s, d FROM e), 0.85, 0.0, 20) pr")
            .unwrap();
        let total = r.scalar().unwrap().as_float().unwrap();
        assert!((total - 1.0).abs() < 1e-6, "rank sum {total}");
    });
}

#[test]
fn update_then_sum_consistent() {
    for_cases(0x5C3D, 48, |rng| {
        let rows = small_rows(rng);
        let delta = rng.gen_range(-5i64..5);
        let db = db_with(&rows);
        db.execute(&format!("UPDATE t SET a = a + {delta}"))
            .unwrap();
        let r = db.execute("SELECT sum(a) FROM t").unwrap();
        if rows.is_empty() {
            assert!(r.scalar().unwrap().is_null());
        } else {
            let expect: i64 = rows.iter().map(|(a, _)| a + delta).sum();
            assert_eq!(r.scalar().unwrap(), Value::Int(expect));
        }
    });
}

// ---------------------------------------------------------------------
// Hash keys: GROUP BY, DISTINCT, UNION, joins and recursive-CTE dedup
// against a plain-Rust reference, compared as multisets.

/// Columns of the generated key tables `ka` and `kb`.
const KEY_SCHEMA: &str = "(i BIGINT, f DOUBLE, s1 VARCHAR, s2 VARCHAR, b BOOLEAN)";

fn pick(rng: &mut StdRng, pool: &[Value]) -> Value {
    pool[rng.gen_range(0..pool.len())].clone()
}

/// Rows over small pools, so keys repeat: NULL in every column; NaNs
/// with different bits and both zeros; empty strings and pairs whose
/// concatenations agree ("ab"+"c" vs "a"+"bc").
fn key_rows(rng: &mut StdRng) -> Vec<Vec<Value>> {
    let ints = [Value::Null, Value::Int(-1), Value::Int(0), Value::Int(2)];
    let floats = [
        Value::Null,
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Float(1.5),
        Value::Float(-2.25),
    ];
    let strs = ["", "a", "ab", "b", "bc", "c"]
        .iter()
        .map(|&s| Value::from(s))
        .chain([Value::Null])
        .collect::<Vec<_>>();
    let bools = [Value::Null, Value::Bool(true), Value::Bool(false)];
    (0..rng.gen_range(0usize..40))
        .map(|_| {
            vec![
                pick(rng, &ints),
                pick(rng, &floats),
                pick(rng, &strs),
                pick(rng, &strs),
                pick(rng, &bools),
            ]
        })
        .collect()
}

fn key_db(ka: &[Vec<Value>], kb: &[Vec<Value>]) -> Database {
    let db = Database::new();
    for (name, rows) in [("ka", ka), ("kb", kb)] {
        db.execute(&format!("CREATE TABLE {name} {KEY_SCHEMA}"))
            .unwrap();
        let table = db.catalog().get_table(name).unwrap();
        let mut table = table.write();
        table.insert_rows(rows).unwrap();
        table.commit();
    }
    db
}

/// A value as the reference sees keys: every NaN alike, `-0.0` as `0.0`.
fn canon(v: &Value) -> String {
    match v {
        Value::Float(x) if x.is_nan() => "NaN".into(),
        Value::Float(x) if *x == 0.0 => "F0".into(),
        Value::Float(x) => format!("F{x:.9e}"),
        other => format!("{other:?}"),
    }
}

fn canon_row(values: &[Value]) -> String {
    values.iter().map(canon).collect::<Vec<_>>().join("|")
}

fn sorted(mut rows: Vec<String>) -> Vec<String> {
    rows.sort();
    rows
}

fn engine_rows(db: &Database, sql: &str) -> Vec<String> {
    let r = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    sorted(
        r.to_rows()
            .iter()
            .map(|row| canon_row(row.values()))
            .collect(),
    )
}

/// Distinct canonical rows.
fn set_of(rows: impl IntoIterator<Item = Vec<Value>>) -> Vec<String> {
    let set: std::collections::BTreeSet<String> = rows.into_iter().map(|r| canon_row(&r)).collect();
    set.into_iter().collect()
}

/// SQL `=`: NULL and NaN match nothing; `-0.0 = 0.0`.
fn sql_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => false,
        (Value::Float(x), Value::Float(y)) => x == y,
        _ => a == b,
    }
}

fn float_of(v: &Value) -> Option<f64> {
    match v {
        Value::Int(x) => Some(*x as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// The reference's aggregates, with the engine's definitions: SUM of
/// no value is NULL, MIN/MAX in `sort_cmp` order, STDDEV/VAR_SAMP from
/// (n, Σx, Σx²) and NULL below two values.
fn reference_aggregates(rows: &[&Vec<Value>]) -> Vec<Value> {
    let col = |c: usize| rows.iter().map(move |r| &r[c]).filter(|v| !v.is_null());
    let sum = |c: usize| -> Value {
        let vals: Vec<&Value> = col(c).collect();
        match vals.first() {
            None => Value::Null,
            Some(Value::Int(_)) => Value::Int(vals.iter().map(|v| v.as_int().unwrap()).sum()),
            Some(_) => Value::Float(vals.iter().map(|v| float_of(v).unwrap()).sum()),
        }
    };
    let avg = |c: usize| -> Value {
        let vals: Vec<f64> = col(c).map(|v| float_of(v).unwrap()).collect();
        if vals.is_empty() {
            Value::Null
        } else {
            Value::Float(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    };
    let extreme = |c: usize, min: bool| -> Value {
        col(c).fold(Value::Null, |best, v| {
            let ord = v.sort_cmp(&best);
            if best.is_null() || (min && ord.is_lt()) || (!min && ord.is_gt()) {
                v.clone()
            } else {
                best
            }
        })
    };
    let moments = |c: usize, stddev: bool| -> Value {
        let vals: Vec<f64> = col(c).map(|v| float_of(v).unwrap()).collect();
        if vals.len() < 2 {
            return Value::Null;
        }
        let n = vals.len() as f64;
        let (sum, sum_sq) = vals.iter().fold((0.0, 0.0), |(s, q), x| (s + x, q + x * x));
        let var = ((sum_sq - sum * sum / n) / (n - 1.0)).max(0.0);
        Value::Float(if stddev { var.sqrt() } else { var })
    };
    vec![
        Value::Int(rows.len() as i64),
        Value::Int(col(1).count() as i64),
        sum(0),
        sum(1),
        avg(0),
        avg(1),
        extreme(1, true),
        extreme(1, false),
        extreme(3, true),
        extreme(0, false),
        moments(0, true),
        moments(1, false),
    ]
}

const AGGREGATES: &str = "count(*), count(f), sum(i), sum(f), avg(i), avg(f), min(f), max(f), \
                          min(s2), max(i), stddev(i), var_samp(f)";
const KEY_COLUMNS: [&str; 5] = ["i", "f", "s1", "s2", "b"];

#[test]
fn group_by_keys_match_reference() {
    for_cases(0x6E75, 32, |rng| {
        let ka = key_rows(rng);
        let db = key_db(&ka, &[]);
        // A random non-empty subset of the key columns, in random order.
        let mut keys: Vec<usize> = (0..KEY_COLUMNS.len())
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        if keys.is_empty() {
            keys.push(rng.gen_range(0..KEY_COLUMNS.len()));
        }
        if rng.gen_bool(0.5) {
            keys.reverse();
        }
        let names: Vec<&str> = keys.iter().map(|&c| KEY_COLUMNS[c]).collect();
        let sql = format!(
            "SELECT {k}, {AGGREGATES} FROM ka GROUP BY {k}",
            k = names.join(", ")
        );
        let mut groups: std::collections::BTreeMap<String, Vec<&Vec<Value>>> = Default::default();
        for row in &ka {
            let key: Vec<Value> = keys.iter().map(|&c| row[c].clone()).collect();
            groups.entry(canon_row(&key)).or_default().push(row);
        }
        let expect: Vec<String> = groups
            .values()
            .map(|rows| {
                let mut out: Vec<Value> = keys.iter().map(|&c| rows[0][c].clone()).collect();
                out.extend(reference_aggregates(rows));
                canon_row(&out)
            })
            .collect();
        assert_eq!(engine_rows(&db, &sql), sorted(expect), "{sql}");
    });
}

#[test]
fn distinct_union_and_cte_dedup_match_reference() {
    for_cases(0xD15C, 32, |rng| {
        let (ka, kb) = (key_rows(rng), key_rows(rng));
        let db = key_db(&ka, &kb);
        let project = |rows: &[Vec<Value>], cols: &[usize]| -> Vec<Vec<Value>> {
            rows.iter()
                .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
                .collect()
        };
        assert_eq!(
            engine_rows(&db, "SELECT DISTINCT f, s1, s2, b FROM ka"),
            set_of(project(&ka, &[1, 2, 3, 4])),
        );
        let both: Vec<Vec<Value>> = project(&ka, &[0, 1, 2])
            .into_iter()
            .chain(project(&kb, &[0, 1, 2]))
            .collect();
        assert_eq!(
            engine_rows(&db, "SELECT i, f, s1 FROM ka UNION SELECT i, f, s1 FROM kb"),
            set_of(both),
        );
        // The step negates f: 0.0 comes back as -0.0 and a NaN with its
        // sign flipped; neither is a new row.
        let negated = project(&ka, &[1, 2]).into_iter().flat_map(|r| {
            let neg = match &r[0] {
                Value::Float(x) => Value::Float(-x),
                other => other.clone(),
            };
            [r.clone(), vec![neg, r[1].clone()]]
        });
        assert_eq!(
            engine_rows(
                &db,
                "WITH RECURSIVE r (f, s) AS (SELECT f, s1 FROM ka UNION SELECT f * -1.0, s FROM r) \
                 SELECT f, s FROM r"
            ),
            set_of(negated),
        );
    });
}

#[test]
fn hash_joins_match_reference() {
    // (ON clause, equi-key column pairs, residual `ka.i < kb.i`?)
    let variants: [(&str, &[usize], bool); 3] = [
        ("ka.f = kb.f AND ka.s1 = kb.s1", &[1, 2], false),
        (
            "ka.i = kb.i AND ka.b = kb.b AND ka.s2 = kb.s2",
            &[0, 4, 3],
            false,
        ),
        (
            "ka.s1 = kb.s1 AND ka.f = kb.f AND ka.i < kb.i",
            &[2, 1],
            true,
        ),
    ];
    for_cases(0x701E, 32, |rng| {
        let (ka, kb) = (key_rows(rng), key_rows(rng));
        let db = key_db(&ka, &kb);
        for (on, keys, residual) in variants {
            for left in [false, true] {
                let sql = format!(
                    "SELECT ka.i, ka.f, ka.s1, ka.s2, ka.b, kb.i, kb.f, kb.s1 \
                     FROM ka {} JOIN kb ON {on}",
                    if left { "LEFT" } else { "" }
                );
                let mut expect = Vec::new();
                for a in &ka {
                    let mut matched = false;
                    for b in &kb {
                        let hit = keys.iter().all(|&c| sql_eq(&a[c], &b[c]))
                            && (!residual
                                || matches!((&a[0], &b[0]), (Value::Int(x), Value::Int(y)) if x < y));
                        if hit {
                            matched = true;
                            let mut row = a.clone();
                            row.extend([b[0].clone(), b[1].clone(), b[2].clone()]);
                            expect.push(canon_row(&row));
                        }
                    }
                    if left && !matched {
                        let mut row = a.clone();
                        row.extend([Value::Null, Value::Null, Value::Null]);
                        expect.push(canon_row(&row));
                    }
                }
                assert_eq!(engine_rows(&db, &sql), sorted(expect), "{sql}");
            }
        }
    });
}
