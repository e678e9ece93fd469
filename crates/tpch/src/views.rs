//! The four evaluation views of §7.2.
//!
//! * `Vsuccess` / `Vlinear` — the five relations nested linearly following
//!   the key/foreign-key constraints; every internal node is
//!   unconditionally updatable (clean | safe).
//! * `Vfail` — the same linear nesting, plus the to-be-updated relation
//!   (REGION) republished under the root; deleting a nested region element
//!   is untranslatable and STAR rejects it at compile-marked cost.
//! * `Vbush` — the relations joined "evenly": two-relation FLWRs at each
//!   level instead of one-per-level.

/// Linear nesting along the FK chain (Vsuccess of Fig. 13; the paper reuses
/// the shape as Vlinear in Figs. 15/17).
pub const V_SUCCESS: &str = r#"
<Vsuccess>
FOR $r IN document("default.xml")/region/row
RETURN {
<region>
$r/r_regionkey, $r/r_name,
FOR $n IN document("default.xml")/nation/row
WHERE $n/n_regionkey = $r/r_regionkey
RETURN {
<nation>
$n/n_nationkey, $n/n_name,
FOR $c IN document("default.xml")/customer/row
WHERE $c/c_nationkey = $n/n_nationkey
RETURN {
<customer>
$c/c_custkey, $c/c_name, $c/c_acctbal,
FOR $o IN document("default.xml")/orders/row
WHERE $o/o_custkey = $c/c_custkey
RETURN {
<order>
$o/o_orderkey, $o/o_totalprice,
FOR $l IN document("default.xml")/lineitem/row
WHERE $l/l_orderkey = $o/o_orderkey
RETURN {
<lineitem>
$l/l_linenumber, $l/l_quantity, $l/l_extendedprice
</lineitem>}
</order>}
</customer>}
</nation>}
</region>}
</Vsuccess>"#;

/// Alias: the paper calls the same linear shape `Vlinear` in Figs. 15/17.
pub const V_LINEAR: &str = V_SUCCESS;

/// Linear nesting plus REGION republished under the root: deleting a nested
/// `<region>` is untranslatable (its relation is exposed by `<regionlist>`).
pub const V_FAIL: &str = r#"
<Vfail>
FOR $r IN document("default.xml")/region/row
RETURN {
<region>
$r/r_regionkey, $r/r_name,
FOR $n IN document("default.xml")/nation/row
WHERE $n/n_regionkey = $r/r_regionkey
RETURN {
<nation>
$n/n_nationkey, $n/n_name,
FOR $c IN document("default.xml")/customer/row
WHERE $c/c_nationkey = $n/n_nationkey
RETURN {
<customer>
$c/c_custkey, $c/c_name,
FOR $o IN document("default.xml")/orders/row
WHERE $o/o_custkey = $c/c_custkey
RETURN {
<order>
$o/o_orderkey, $o/o_totalprice,
FOR $l IN document("default.xml")/lineitem/row
WHERE $l/l_orderkey = $o/o_orderkey
RETURN {
<lineitem>
$l/l_linenumber, $l/l_quantity
</lineitem>}
</order>}
</customer>}
</nation>}
</region>},
FOR $r2 IN document("default.xml")/region/row
RETURN {
<regionlist>
$r2/r_regionkey, $r2/r_name
</regionlist>}
</Vfail>"#;

/// "Even" (bushy) join shape: (nation ⋈ region) at the top, (orders ⋈
/// customer) below it, lineitem at the bottom. Every multi-relation FLWR
/// joins its extension relation through a unique key, so Rule 1 holds.
pub const V_BUSH: &str = r#"
<Vbush>
FOR $n IN document("default.xml")/nation/row,
$r IN document("default.xml")/region/row
WHERE $n/n_regionkey = $r/r_regionkey
RETURN {
<natreg>
$n/n_nationkey, $n/n_name, $r/r_name,
FOR $o IN document("default.xml")/orders/row,
$c IN document("default.xml")/customer/row
WHERE $o/o_custkey = $c/c_custkey AND $c/c_nationkey = $n/n_nationkey
RETURN {
<custorder>
$o/o_orderkey, $o/o_totalprice, $c/c_custkey, $c/c_name,
FOR $l IN document("default.xml")/lineitem/row
WHERE $l/l_orderkey = $o/o_orderkey
RETURN {
<lineitem>
$l/l_linenumber, $l/l_quantity
</lineitem>}
</custorder>}
</natreg>}
</Vbush>"#;

/// Per-relation `Vfail`: the linear nesting plus the named relation
/// republished under the root, making deletes at that level untranslatable
/// (the Fig. 14 experiment runs one such view per relation).
pub fn vfail_for(relation: &str) -> String {
    let (var, cols) = match relation.to_ascii_lowercase().as_str() {
        "region" => ("r2", "$r2/r_regionkey, $r2/r_name"),
        "nation" => ("n2", "$n2/n_nationkey, $n2/n_name"),
        "customer" => ("c2", "$c2/c_custkey, $c2/c_name"),
        "orders" => ("o2", "$o2/o_orderkey, $o2/o_totalprice"),
        "lineitem" => ("l2", "$l2/l_orderkey, $l2/l_linenumber, $l2/l_quantity"),
        other => panic!("unknown relation {other}"),
    };
    let body = V_SUCCESS
        .trim()
        .strip_prefix("<Vsuccess>")
        .and_then(|s| s.strip_suffix("</Vsuccess>"))
        .expect("Vsuccess shape");
    format!(
        "<Vfail>{body},\nFOR ${var} IN document(\"default.xml\")/{relation}/row\n\
         RETURN {{\n<{relation}list>\n{cols}\n</{relation}list>}}\n</Vfail>"
    )
}

/// A customer view whose projection sits under `depth` nested constant
/// elements: the compile-scaling views of `paper-figures marking` (the
/// deep views the over-the-wire benchmark adds have the same shape).
pub fn deep_view(depth: usize) -> String {
    let open: String = (0..depth).map(|d| format!("<e{d}>")).collect();
    let close: String = (0..depth).rev().map(|d| format!("</e{d}>")).collect();
    format!(
        "<Vdeep>\nFOR $c IN document(\"default.xml\")/customer/row\nWHERE $c/c_custkey > -1\n\
         RETURN {{{open}\n$c/c_custkey, $c/c_name\n{close}}}\n</Vdeep>"
    )
}

/// `width` sibling customer FLWRs under the root, each a separate region
/// over the same relation: the wide compile-scaling views, where STAR's
/// Rules 2 and 3 compare every region with every other.
pub fn wide_view(width: usize) -> String {
    let flwrs: Vec<String> = (0..width)
        .map(|i| {
            format!(
                "FOR $c{i} IN document(\"default.xml\")/customer/row\n\
                 WHERE $c{i}/c_custkey > {i}\nRETURN {{<c{i}>$c{i}/c_custkey, $c{i}/c_name</c{i}>}}"
            )
        })
        .collect();
    format!("<Vwide>\n{}\n</Vwide>", flwrs.join(",\n"))
}

/// Update texts for the per-level deletes of Fig. 13 (one element of each
/// nesting level of Vsuccess/Vlinear) and the experiment inserts.
pub mod updates {
    /// Delete one `<region>` element by key.
    pub fn delete_region(key: i64) -> String {
        format!(
            r#"FOR $r IN document("V.xml")/region
WHERE $r/r_regionkey/text() = "{key}"
UPDATE $r {{ DELETE $r }}"#
        )
    }

    /// Delete one `<nation>` element by key.
    pub fn delete_nation(key: i64) -> String {
        format!(
            r#"FOR $r IN document("V.xml")/region, $n IN $r/nation
WHERE $n/n_nationkey/text() = "{key}"
UPDATE $r {{ DELETE $n }}"#
        )
    }

    /// Delete one `<customer>` element by key.
    pub fn delete_customer(key: i64) -> String {
        format!(
            r#"FOR $r IN document("V.xml")/region, $n IN $r/nation, $c IN $n/customer
WHERE $c/c_custkey/text() = "{key}"
UPDATE $n {{ DELETE $c }}"#
        )
    }

    /// Delete one `<order>` element by key.
    pub fn delete_order(key: i64) -> String {
        format!(
            r#"FOR $r IN document("V.xml")/region, $n IN $r/nation, $c IN $n/customer, $o IN $c/order
WHERE $o/o_orderkey/text() = "{key}"
UPDATE $c {{ DELETE $o }}"#
        )
    }

    /// Delete the `<lineitem>`s of one order.
    pub fn delete_lineitems_of_order(orderkey: i64) -> String {
        format!(
            r#"FOR $r IN document("V.xml")/region, $n IN $r/nation, $c IN $n/customer, $o IN $c/order
WHERE $o/o_orderkey/text() = "{orderkey}"
UPDATE $o {{ DELETE $o/lineitem }}"#
        )
    }

    /// Insert a new `<lineitem>` into an order of Vlinear (Fig. 15's
    /// workload: internal vs external).
    pub fn insert_lineitem(orderkey: i64, linenumber: i64) -> String {
        format!(
            r#"FOR $r IN document("V.xml")/region, $n IN $r/nation, $c IN $n/customer, $o IN $c/order
WHERE $o/o_orderkey/text() = "{orderkey}"
UPDATE $o {{
INSERT
<lineitem>
<l_linenumber>{linenumber}</l_linenumber>
<l_quantity>7</l_quantity>
<l_extendedprice>1234.00</l_extendedprice>
</lineitem>}}"#
        )
    }

    /// Vbush: delete the `<lineitem>`s of one custorder.
    pub fn bush_delete_lineitems(orderkey: i64) -> String {
        format!(
            r#"FOR $nr IN document("V.xml")/natreg, $co IN $nr/custorder
WHERE $co/o_orderkey/text() = "{orderkey}"
UPDATE $co {{ DELETE $co/lineitem }}"#
        )
    }

    /// Vbush: delete the `<lineitem>`s of *every* custorder of one nation —
    /// the broad update of Fig. 16, whose context materialization is the
    /// outside strategy's cost.
    pub fn bush_delete_nation_lineitems(nationkey: i64) -> String {
        format!(
            r#"FOR $nr IN document("V.xml")/natreg, $co IN $nr/custorder
WHERE $nr/n_nationkey/text() = "{nationkey}"
UPDATE $co {{ DELETE $co/lineitem }}"#
        )
    }

    /// Vfail: delete one nested `<region>` element (untranslatable — REGION
    /// is republished under the root).
    pub fn fail_delete_region(key: i64) -> String {
        format!(
            r#"FOR $r IN document("V.xml")/region
WHERE $r/r_regionkey/text() = "{key}"
UPDATE $r {{ DELETE $r }}"#
        )
    }

    /// Delete one element at the named nesting level (the per-relation bars
    /// of Figs. 13 and 14).
    pub fn delete_at_level(level: &str, key: i64) -> String {
        match level.to_ascii_lowercase().as_str() {
            "region" => delete_region(key),
            "nation" => delete_nation(key),
            "customer" => delete_customer(key),
            "orders" | "order" => delete_order(key),
            "lineitem" => delete_lineitems_of_order(key),
            other => panic!("unknown level {other}"),
        }
    }
}
