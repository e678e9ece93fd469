//! Seeded workload inputs: the TPC-H database rendered as the SQL script the
//! server loads, the view catalogs, and the request streams. Everything here
//! is a pure function of the seed, so two runs with one seed send the server
//! byte-identical inputs.

use std::fmt::Write as _;

use ufilter_rdb::{DataType, Db, DeletePolicy, Value};
use ufilter_tpch::{fanout_stream, many_views, stream, Scale, StreamSpec};

/// SplitMix64: a tiny seeded generator for the benchmark's own choices
/// (arrival gaps, request order, churn mix).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other uses of the seed by
    /// `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean (Poisson gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Database scale of the CHECK workloads: ~13k rows.
pub const CHECK_SCALE: usize = 50;
/// Database scale of the fan-out workload: ~300 rows, so keys repeat.
pub const FANOUT_SCALE: usize = 1;
/// Views in the fan-out workload's warm-restored catalog.
pub const FANOUT_VIEWS: usize = 20_000;
/// Updates per `BATCHALL` request.
pub const BATCH_SIZE: usize = 64;

/// An aggregate view over the TPC-H relations: every nation with the
/// customer count of the whole database, so Step 1½ (the non-injective
/// check and the independence analysis) decides its updates.
pub const V_STATS: &str = r#"
<Vstats>
FOR $n IN document("default.xml")/nation/row
RETURN {
<nation>
$n/n_nationkey, $n/n_name,
<ncust> count(document("default.xml")/customer/row) </ncust>
</nation>}
</Vstats>"#;

/// The CHECK workloads' catalog: the three stream views plus `vstats`.
pub fn check_views() -> Vec<(String, String)> {
    let mut views: Vec<(String, String)> = ufilter_tpch::stream_views()
        .into_iter()
        .map(|(n, t)| (n.to_string(), t.to_string()))
        .collect();
    views.push(("vstats".to_string(), V_STATS.to_string()));
    views
}

/// The generated database of `scale` (TPC-H ratios, CASCADE deletes).
pub fn database(scale: usize, seed: u64) -> Db {
    ufilter_tpch::generate(Scale::mb(scale), seed, DeletePolicy::Cascade)
}

/// Render `db` as a `;`-separated SQL script (DDL, then one INSERT per row
/// in key order) that `Db::execute_script` loads back into an equal
/// database.
pub fn render_sql(db: &Db) -> String {
    let mut out = String::new();
    for table in &db.schema().tables {
        let _ = writeln!(out, "CREATE TABLE {}(", table.name);
        let mut parts: Vec<String> = table
            .columns
            .iter()
            .map(|c| {
                let ty = match c.ty {
                    DataType::Int => "INT",
                    DataType::Double => "DOUBLE",
                    DataType::Str => "VARCHAR",
                    DataType::Date => "DATE",
                    DataType::Bool => "BOOLEAN",
                };
                let unique = if c.unique { " UNIQUE" } else { "" };
                let not_null = if c.not_null { " NOT NULL" } else { "" };
                format!("    {} {ty}{unique}{not_null}", c.name)
            })
            .collect();
        if !table.primary_key.is_empty() {
            parts.push(format!(
                "    CONSTRAINTS {}_pk PRIMARYKEY ({})",
                table.name,
                table.primary_key.join(", ")
            ));
        }
        for fk in &table.foreign_keys {
            let policy = match fk.on_delete {
                DeletePolicy::Cascade => "CASCADE",
                DeletePolicy::SetNull => "SET NULL",
                DeletePolicy::Restrict => "RESTRICT",
            };
            parts.push(format!(
                "    FOREIGNKEY ({}) REFERENCES {} ({}) ON DELETE {policy}",
                fk.columns.join(", "),
                fk.ref_table,
                fk.ref_columns.join(", ")
            ));
        }
        let _ = writeln!(out, "{});\n", parts.join(",\n"));
    }
    for table in &db.schema().tables {
        for row in db.table_rows_sorted(&table.name) {
            let values: Vec<String> = row.iter().map(sql_literal).collect();
            let _ = writeln!(out, "INSERT INTO {} VALUES ({});", table.name, values.join(", "));
        }
    }
    out
}

fn sql_literal(v: &Value) -> String {
    match v {
        // Dates are day numbers; the engine coerces an integer literal into
        // a DATE column as that day number.
        Value::Date(d) => d.to_string(),
        // Shortest round-trip form, so the script reloads the exact bits.
        Value::Double(d) => format!("{d:?}"),
        other => other.to_string(),
    }
}

/// One CHECK request: (view name, update text).
pub type CheckItem = (String, String);

/// The CHECK stream of `check-open` and `churn`: `tpch::workload::stream`
/// over a key pool as large as each relation (so most probes miss the
/// per-worker probe cache), with one request in ten re-aimed at `vstats`.
pub fn check_stream(seed: u64, len: usize) -> Vec<CheckItem> {
    let scale = Scale::mb(CHECK_SCALE);
    let spec = StreamSpec { len, distinct_keys: usize::MAX };
    let mut rng = Rng::new(seed, 1);
    stream(spec, scale, seed)
        .into_iter()
        .map(|item| if rng.below(10) == 0 { stats_update(&mut rng) } else { item })
        .collect()
}

fn stats_update(rng: &mut Rng) -> CheckItem {
    let k = rng.below(25);
    let body = match rng.below(3) {
        // Cascades into CUSTOMER, whose count the view publishes.
        0 => "DELETE $n".to_string(),
        // A value write outside every aggregate read-set.
        1 => format!("REPLACE $n/n_name WITH <n_name>NATION_{k:02}_{}</n_name>", rng.below(1000)),
        // Deletes the nation's customers through the view's aggregate.
        _ => "DELETE $n/ncust".to_string(),
    };
    let update = format!(
        "FOR $n IN document(\"V.xml\")/nation\nWHERE $n/n_nationkey/text() = \"{k}\"\n\
         UPDATE $n {{ {body} }}"
    );
    ("vstats".to_string(), update)
}

/// The fan-out workload's view catalog (`many_views` over the small DB).
pub fn fanout_views() -> Vec<(String, String)> {
    many_views(FANOUT_VIEWS, Scale::mb(FANOUT_SCALE))
}

/// `n` BATCHALL requests of [`BATCH_SIZE`] `fanout_stream` updates each.
pub fn fanout_batches(seed: u64, n: usize) -> Vec<Vec<String>> {
    let updates = fanout_stream(n * BATCH_SIZE, Scale::mb(FANOUT_SCALE), seed);
    updates.chunks(BATCH_SIZE).map(|c| c.to_vec()).collect()
}

/// Nesting depths of the churn workload's deep views, one entry per slot of
/// a ten-add cycle (`0` = a `many_views` family view). The mix keeps the
/// median inside the depth-50 block and the 90th percentile inside the
/// depth-300 block, so both quantiles sit on one view class every run.
pub const CHURN_CYCLE: [usize; 10] = [0, 0, 0, 0, 50, 50, 100, 200, 300, 300];

/// A view added by the churn workload: (name, text, nesting depth or 0).
pub type ChurnAdd = (String, String, usize);

/// The first `n` churn adds. Each text is distinct, so every add compiles
/// rather than hitting the catalog's compile-once cache. Names are chosen so
/// that slot `j` of cycle `c` lands on server shard `(c + j) % shards`:
/// every four cycles, each depth class write-locks every shard equally
/// often, whatever the seed's order within a cycle.
pub fn churn_adds(seed: u64, n: usize) -> Vec<ChurnAdd> {
    let shards = 2 * crate::server::WORKERS as u64;
    let mut rng = Rng::new(seed, 2);
    let families = many_views(n.max(3), Scale::mb(CHECK_SCALE));
    let mut out = Vec::with_capacity(n);
    let mut slots: Vec<usize> = (0..CHURN_CYCLE.len()).collect();
    for cycle in 0.. {
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &slot in &slots {
            let i = out.len();
            if i == n {
                return out;
            }
            let depth = CHURN_CYCLE[slot];
            let text = if depth == 0 {
                // Family texts may repeat; re-key them with a distinct,
                // always-true predicate.
                rekey_family(&families[rng.below(families.len() as u64) as usize].1, i)
            } else {
                deep_view(depth, i)
            };
            let target = (cycle + slot as u64) % shards;
            let name = (0..)
                .map(|k| format!("churn_{i:05}_{k}"))
                .find(|name| ufilter_service::affinity_hash(&[name]) % shards == target)
                .expect("some suffix hashes to every shard");
            out.push((name, text, depth));
        }
    }
    unreachable!("the cycle loop returns once n adds exist")
}

/// Make a family view's text unique by appending a predicate on its
/// partition key that every row satisfies.
fn rekey_family(text: &str, i: usize) -> String {
    let (var, key) = if text.contains("<Vcust>") {
        ("$c", "c_custkey")
    } else if text.contains("<Vord>") {
        ("$o", "o_orderkey")
    } else {
        ("$n", "n_nationkey")
    };
    let needle = format!("{var}/{key} >= ");
    let at = text.find(&needle).expect("family views bound their partition key");
    format!("{}{var}/{key} > -{} AND {}", &text[..at], i + 1, &text[at..])
}

/// A customer view whose projection sits under `depth` nested constant
/// elements; `salt` keeps its text unique.
pub fn deep_view(depth: usize, salt: usize) -> String {
    let mut out = String::from("<Vdeep>\nFOR $c IN document(\"default.xml\")/customer/row\n");
    let _ = writeln!(out, "WHERE $c/c_custkey > -{}\nRETURN {{", salt + 1);
    for d in 0..depth {
        let _ = write!(out, "<e{d}>");
    }
    out.push_str("\n$c/c_custkey, $c/c_name\n");
    for d in (0..depth).rev() {
        let _ = write!(out, "</e{d}>");
    }
    out.push_str("}\n</Vdeep>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let a = (render_sql(&database(CHECK_SCALE, 7)), check_stream(7, 500), churn_adds(7, 40));
        let b = (render_sql(&database(CHECK_SCALE, 7)), check_stream(7, 500), churn_adds(7, 40));
        assert_eq!(a, b);
        assert_eq!(fanout_batches(7, 3), fanout_batches(7, 3));
        assert_ne!(check_stream(7, 500), check_stream(8, 500));
    }

    #[test]
    fn rendered_sql_loads_back_to_the_generated_database() {
        let db = database(CHECK_SCALE, 3);
        let mut loaded = Db::new();
        loaded.execute_script(&render_sql(&db)).expect("rendered script loads");
        assert_eq!(loaded.dump(), db.dump(), "rows round-trip");
        let expected = ufilter_tpch::tpch_schema(DeletePolicy::Cascade);
        assert_eq!(loaded.schema().tables.len(), expected.tables.len());
        for (got, want) in loaded.schema().tables.iter().zip(&expected.tables) {
            assert_eq!(got.name, want.name);
            assert_eq!(got.primary_key, want.primary_key);
            let cols = |t: &ufilter_rdb::TableSchema| -> Vec<(String, DataType, bool, bool)> {
                t.columns.iter().map(|c| (c.name.clone(), c.ty, c.not_null, c.unique)).collect()
            };
            assert_eq!(cols(got), cols(want));
            let fks = |t: &ufilter_rdb::TableSchema| -> Vec<(Vec<String>, String, Vec<String>, DeletePolicy)> {
                t.foreign_keys
                    .iter()
                    .map(|f| (f.columns.clone(), f.ref_table.clone(), f.ref_columns.clone(), f.on_delete))
                    .collect()
            };
            assert_eq!(fks(got), fks(want), "foreign keys of {}", want.name);
        }
    }

    #[test]
    fn churn_adds_are_distinct_and_follow_the_depth_cycle() {
        let adds = churn_adds(5, 50);
        let texts: std::collections::HashSet<&String> = adds.iter().map(|a| &a.1).collect();
        assert_eq!(texts.len(), adds.len(), "every add compiles: no repeated text");
        for chunk in adds.chunks(CHURN_CYCLE.len()) {
            let mut depths: Vec<usize> = chunk.iter().map(|a| a.2).collect();
            depths.sort();
            assert_eq!(depths, CHURN_CYCLE);
        }
    }
}
