//! `checkpoint-compat` — checkpointed structs must stay loadable by
//! fields, not luck.
//!
//! PR 2's crash/resume contract says a daemon built today must load a
//! checkpoint written by any earlier build of the same
//! `CHECKPOINT_VERSION`. PRs 4, 7, and 8 each added fields
//! (`pipeline_workers`, `lp_basis`, `objective`, `cost_dollars`, and an
//! LP engine selector since removed) and each had to re-discover the
//! tolerant-deser idiom by hand:
//!
//! ```text
//! match v.field("name") { Ok(Value::Null) | Err(_) => <default>, Ok(other) => ... }
//! ```
//!
//! This rule pins the baseline field schema of every checkpointed type
//! and parses the hand-written serde impls: a field read in
//! `from_value` that is *not* in the baseline must use the tolerant
//! match (an arm handling `Err`), or old checkpoints stop loading the
//! day the field ships. It also checks read/write symmetry: a field
//! read in `from_value` but never written by `to_value` would silently
//! take its default on every resume.
//!
//! Known limit: the baseline is a pinned constant, so renaming a
//! baseline field needs a rule update — which is the point; schema
//! changes should be loud.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Expr, Item};
use crate::dataflow::walk_fn;
use crate::engine::{Ctx, Finding};
use crate::lexer::TokenKind;
use crate::rules::{Rule, CHECKPOINT_COMPAT};

/// Baseline (required-allowed) fields per checkpointed type: the
/// schema as of the version-3 checkpoint format. Fields beyond these
/// must deserialize tolerantly.
const BASELINE: &[(&str, &[&str])] = &[
    (
        "HarmonyConfig",
        &[
            "control_period",
            "horizon",
            "epsilon",
            "omega",
            "slo_delay_secs",
            "utility_per_container_hour",
            "history_len",
            "arima_min_history",
            "demand_margin",
            "max_lp_pivots",
        ],
    ),
    ("ClassifierConfig", &["k_per_group", "k_max", "elbow_min_gain", "split_by_duration", "seed"]),
    ("IntegerPlan", &["machines", "quotas"]),
    ("ClassForecast", &["rates", "tier", "degraded"]),
    ("OnlineState", &["ticks", "errors", "histories", "last_plan", "pending_events"]),
    (
        "Checkpoint",
        &[
            "version",
            "config",
            "classifier",
            "source",
            "catalog",
            "state",
            "buffered",
            "total_observations",
        ],
    ),
    ("ClassifierSource", &["kind", "path", "format", "hash", "seed", "span_secs"]),
    ("CatalogSpec", &["name", "divisor"]),
    ("ObjectiveSpec", &["kind", "spot", "seed"]),
    ("Basis", &["cols", "n_cols"]),
];

pub struct CheckpointCompat;

impl Rule for CheckpointCompat {
    fn id(&self) -> &'static str {
        CHECKPOINT_COMPAT
    }

    fn describe(&self) -> &'static str {
        "checkpointed structs: fields beyond the pinned baseline must use the tolerant-deser match, and every field read must also be written"
    }

    fn check(&self, ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
        // Serialize-side keys per type, gathered first so the deser
        // pass can check read/write symmetry.
        let mut written: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
        for_impls(&ctx.ast.items, &mut |type_name, trait_name, f| {
            if trait_name == "Serialize" && f.name == "to_value" && baseline_entry(type_name).is_some()
            {
                let keys = written.entry(baseline_key(type_name)).or_default();
                collect_written_keys(ctx, f, keys);
            }
        });

        for_impls(&ctx.ast.items, &mut |type_name, trait_name, f| {
            if trait_name != "Deserialize" || f.name != "from_value" {
                return;
            }
            let Some(baseline) = baseline_entry(type_name) else { return };
            // Fields read through the tolerant match: the scrutinee is
            // the raw `v.field("name")` result (no `?`), and an arm
            // pattern handles `Err`.
            let mut tolerant: BTreeSet<String> = BTreeSet::new();
            walk_fn(f, &mut |e| {
                if let Expr::Match { scrutinee, arms } = e {
                    if let Some(name) = field_read(ctx, scrutinee) {
                        let handles_err = arms.iter().any(|arm| {
                            ctx.model.tokens[arm.pat.start..arm.pat.end.min(ctx.model.tokens.len())]
                                .iter()
                                .any(|t| t.ident() == Some("Err"))
                        });
                        if handles_err {
                            tolerant.insert(name);
                        }
                    }
                }
            });
            // Every field read anywhere in the impl.
            let mut reads: BTreeMap<String, usize> = BTreeMap::new();
            walk_fn(f, &mut |e| {
                if let Expr::MethodCall { name, args, tok, .. } = e {
                    if name == "field" && args.len() == 1 {
                        if let Some(key) = lit_str(ctx, args.first()) {
                            reads.entry(key).or_insert(*tok);
                        }
                    }
                }
            });
            let written_keys = written.get(baseline_key(type_name));
            for (field, tok) in &reads {
                let token = &ctx.model.tokens[(*tok).min(ctx.model.tokens.len() - 1)];
                let mut report = |message: String| {
                    out.push(Finding {
                        path: ctx.rel_path.to_owned(),
                        line: token.line,
                        col: token.col,
                        rule: CHECKPOINT_COMPAT,
                        message,
                    });
                };
                if !baseline.contains(&field.as_str()) && !tolerant.contains(field) {
                    report(format!(
                        "`{type_name}::{field}` is not in the pinned checkpoint baseline and is \
                         read without a tolerant default — old checkpoints written before this \
                         field existed will fail to load; use `match v.field(\"{field}\") {{ \
                         Ok(Value::Null) | Err(_) => <default>, .. }}`"
                    ));
                }
                if let Some(ws) = written_keys {
                    if !ws.is_empty() && !ws.contains(field) {
                        report(format!(
                            "`{type_name}::{field}` is read by from_value but never written by \
                             to_value — every resume would silently take the default"
                        ));
                    }
                }
            }
        });
    }
}

/// Canonical baseline key for a type name.
fn baseline_key(type_name: &str) -> &'static str {
    BASELINE
        .iter()
        .map(|(t, _)| *t)
        .find(|t| *t == type_name)
        .unwrap_or("")
}

fn baseline_entry(type_name: &str) -> Option<&'static [&'static str]> {
    BASELINE.iter().find(|(t, _)| *t == type_name).map(|(_, fields)| *fields)
}

/// Visits every fn inside `impl <Trait> for <Type>` blocks.
fn for_impls<'a>(items: &'a [Item], cb: &mut impl FnMut(&'a str, &'a str, &'a crate::ast::Fn)) {
    for item in items {
        match item {
            Item::Impl(i) => {
                if let Some(trait_name) = &i.trait_name {
                    for inner in &i.items {
                        if let Item::Fn(f) = inner {
                            cb(&i.type_name, trait_name, f);
                        }
                    }
                }
                for_impls(&i.items, cb);
            }
            Item::Mod(m) => for_impls(&m.items, cb),
            _ => {}
        }
    }
}

/// `v.field("name")` (possibly behind a reference), returning the key.
fn field_read(ctx: &Ctx<'_>, e: &Expr) -> Option<String> {
    match e {
        Expr::MethodCall { name, args, .. } if name == "field" && args.len() == 1 => {
            lit_str(ctx, args.first())
        }
        Expr::Unary { inner } => field_read(ctx, inner),
        _ => None,
    }
}

/// The string value of a `Lit` expression, if it is a string literal.
fn lit_str(ctx: &Ctx<'_>, e: Option<&Expr>) -> Option<String> {
    if let Some(Expr::Lit { tok }) = e {
        if let Some(TokenKind::Str(value)) = ctx.model.tokens.get(*tok).map(|t| &t.kind) {
            return Some(value.clone());
        }
    }
    None
}

/// Collects the field keys a `to_value` body writes:
/// `map.insert("key".to_owned(), ...)` and `object(&[("key", ...)])`.
fn collect_written_keys(ctx: &Ctx<'_>, f: &crate::ast::Fn, out: &mut BTreeSet<String>) {
    walk_fn(f, &mut |e| match e {
        Expr::MethodCall { name, args, .. } if name == "insert" && args.len() == 2 => {
            let key = match args.first() {
                Some(Expr::MethodCall { recv, name, .. }) if name == "to_owned" => {
                    lit_str(ctx, Some(recv))
                }
                other => lit_str(ctx, other),
            };
            if let Some(key) = key {
                out.insert(key);
            }
        }
        Expr::Tuple { items } if items.len() >= 2 => {
            if let Some(key) = lit_str(ctx, items.first()) {
                out.insert(key);
            }
        }
        _ => {}
    });
}
