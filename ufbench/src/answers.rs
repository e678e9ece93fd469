//! Known answers: every served verdict is compared with a single-shot
//! `UFilter::check` of the same (view, update) on the benchmark's own copy
//! of the generated database, and accepted updates are confirmed by the
//! rectangle rule (`rectangle::apply_and_verify`).

use std::collections::HashMap;

use ufilter_core::{apply_and_verify, RectangleVerdict, UFilter};
use ufilter_rdb::Db;
use ufilter_service::server::report_line;

use crate::trace::CONFIG;

/// Accepted (view, update) pairs confirmed by the rectangle rule per view
/// and run. Each confirmation materializes the view twice (~170 ms on
/// the 13k-row database), so every accepted pair cannot be confirmed
/// within a run; the first ones sent per view are.
pub const RECTANGLE_PER_VIEW: usize = 3;

/// Lazily compiled filters and memoized expected outcomes.
pub struct Answers {
    db: Db,
    texts: HashMap<String, String>,
    filters: HashMap<String, UFilter>,
    memo: HashMap<(String, String), String>,
    confirmed: HashMap<String, usize>,
    /// Accepted pairs confirmed by the rectangle rule so far.
    pub rectangles: usize,
}

impl Answers {
    /// Answers over `db` for the views in `texts` (name, view text).
    pub fn new(db: Db, texts: &[(String, String)]) -> Answers {
        Answers {
            db,
            texts: texts.iter().cloned().collect(),
            filters: HashMap::new(),
            memo: HashMap::new(),
            confirmed: HashMap::new(),
            rectangles: 0,
        }
    }

    fn filter(&mut self, view: &str) -> Result<&UFilter, String> {
        if !self.filters.contains_key(view) {
            let text = self.texts.get(view).ok_or_else(|| format!("unknown view {view}"))?;
            let f = UFilter::compile(text, self.db.schema())
                .map_err(|e| format!("{view}: {e}"))?
                .with_config(CONFIG);
            self.filters.insert(view.to_string(), f);
        }
        Ok(&self.filters[view])
    }

    /// The expected wire outcome line (tab-joined per action) of `update`
    /// checked against `view`.
    pub fn expected(&mut self, view: &str, update: &str) -> Result<String, String> {
        let key = (view.to_string(), update.to_string());
        if let Some(line) = self.memo.get(&key) {
            return Ok(line.clone());
        }
        self.filter(view)?;
        let reports = self.filters[view].check(update, &mut self.db);
        let line = report_line(&reports);
        let accepted = reports.iter().all(|r| r.outcome.is_translatable());
        if accepted && self.confirmed.get(view).copied().unwrap_or(0) < RECTANGLE_PER_VIEW {
            self.confirm(view, update)?;
        }
        self.memo.insert(key, line.clone());
        Ok(line)
    }

    /// Apply `update` inside a transaction, check the rectangle rule, and
    /// roll back so later answers see the generated database.
    fn confirm(&mut self, view: &str, update: &str) -> Result<(), String> {
        self.db.begin().map_err(|e| e.to_string())?;
        let verdict = apply_and_verify(&self.filters[view], update, &mut self.db);
        self.db.rollback().map_err(|e| e.to_string())?;
        match verdict? {
            (true, Some(RectangleVerdict::Holds)) => {
                *self.confirmed.entry(view.to_string()).or_default() += 1;
                self.rectangles += 1;
                Ok(())
            }
            other => Err(format!("{view}: accepted update broke the rectangle rule: {other:?}")),
        }
    }
}
