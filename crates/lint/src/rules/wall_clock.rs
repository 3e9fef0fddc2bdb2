//! `wall-clock-in-sim` — deterministic paths must not read the wall
//! clock.
//!
//! The simulator's clock is virtual (`SimTime`), and checkpoint/resume
//! (PR 2) replays runs by event sequence: an `Instant::now()` or
//! `SystemTime::now()` inside `crates/sim`, the controller paths in
//! `crates/core`, or the simplex engine in `crates/lp` (whose pivot
//! sequences must be reproducible for warm-start replay) would smuggle
//! real time into decisions and break bit-identical replay. Real-time
//! *measurement* is still available — route it through
//! `harmony-telemetry`'s `Timer`, which is outside the deterministic
//! scope and only ever feeds metrics, never control decisions.

use crate::engine::{Ctx, Finding};
use crate::rules::{Rule, WALL_CLOCK_IN_SIM};

const SCOPE: &[&str] = &["crates/sim/src/", "crates/core/src/", "crates/lp/src/"];

pub struct WallClock;

impl Rule for WallClock {
    fn id(&self) -> &'static str {
        WALL_CLOCK_IN_SIM
    }

    fn describe(&self) -> &'static str {
        "Instant::now/SystemTime::now inside crates/sim, crates/core, or crates/lp deterministic paths"
    }

    fn check(&self, ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
        if !SCOPE.iter().any(|p| ctx.rel_path.starts_with(p)) {
            return;
        }
        let tokens = &ctx.model.tokens;
        for i in 0..tokens.len() {
            if ctx.model.in_test[i] {
                continue;
            }
            let Some(ty @ ("Instant" | "SystemTime")) = tokens[i].ident() else {
                continue;
            };
            let is_now = tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && tokens.get(i + 3).and_then(|t| t.ident()) == Some("now");
            if is_now {
                out.push(Finding {
                    path: ctx.rel_path.to_owned(),
                    line: tokens[i].line,
                    col: tokens[i].col,
                    rule: self.id(),
                    message: format!(
                        "`{ty}::now()` in a deterministic path breaks replay; use `SimTime` \
                         for logic or `harmony_telemetry` timers for measurement"
                    ),
                });
            }
        }
    }
}
