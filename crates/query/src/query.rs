//! The user-facing query object.
//!
//! A [`Query`] is what the `LIKE` predicate of Figure 1C compiles to: a
//! containment DFA (`Σ*·L·Σ*`) over the document text, plus the metadata
//! index-assisted execution needs — the left anchor word (§2.1's anchored
//! regular expressions) and the pattern's length bounds (for projection).

use crate::error::QueryError;
use crate::kernel::ScanKernel;
use staccato_automata::{left_anchor, like_to_ast, parse, required_literal, Ast, Dfa};

/// A compiled document-containment query.
pub struct Query {
    /// The original pattern text.
    pub pattern: String,
    /// Containment DFA: accepts any string containing a match.
    pub dfa: Dfa,
    /// The parsed pattern.
    pub ast: Ast,
    /// Left anchor word (lowercased), if the pattern is left-anchored.
    pub anchor: Option<String>,
    /// The compiled scan kernel the filescan executors run (dense DFA,
    /// literal bitmap, anchor prescreen).
    pub kernel: ScanKernel,
}

impl Query {
    /// Compile a regex in the paper's dialect (keywords are just regexes
    /// with no metacharacters).
    pub fn regex(pattern: &str) -> Result<Query, QueryError> {
        let ast = parse(pattern)?;
        let dfa = Dfa::compile_containment(&ast);
        // Any string containing a match contains the pattern's literal
        // prefix, case preserved — sound for the containment DFA.
        let kernel = ScanKernel::new(&dfa, required_literal(&ast));
        Ok(Query {
            pattern: pattern.to_string(),
            dfa,
            anchor: left_anchor(&ast),
            ast,
            kernel,
        })
    }

    /// Compile a SQL `LIKE` pattern. `'%Ford%'` matches documents
    /// containing "Ford"; a pattern without wildcards must match the whole
    /// document text.
    pub fn like(pattern: &str) -> Result<Query, QueryError> {
        let ast = like_to_ast(pattern)?;
        // A LIKE pattern constrains the *whole* string, so the DFA is the
        // exact-match automaton of the translated AST (which itself embeds
        // `(\x)*` for `%`).
        let dfa = Dfa::compile(&ast);
        // An accepted string is `(anything)·rest` with `rest` matching the
        // stripped AST, so it contains that AST's literal prefix.
        let kernel = ScanKernel::new(&dfa, required_literal(&strip_leading_any_star(&ast)));
        Ok(Query {
            pattern: pattern.to_string(),
            dfa,
            anchor: left_anchor(&strip_leading_any_star(&ast)),
            ast,
            kernel,
        })
    }

    /// Convenience for keyword containment queries.
    pub fn keyword(word: &str) -> Result<Query, QueryError> {
        Query::regex(word)
    }

    /// Minimum number of characters a match spans.
    pub fn min_span(&self) -> usize {
        self.ast.min_len()
    }

    /// Maximum number of characters a match spans (`None` = unbounded).
    pub fn max_span(&self) -> Option<usize> {
        self.ast.max_len()
    }
}

/// For LIKE patterns the AST starts with `(\x)*` when the pattern starts
/// with `%`; the anchor lives just after it.
fn strip_leading_any_star(ast: &Ast) -> Ast {
    if let Ast::Concat(parts) = ast {
        if let Some(Ast::Star(_)) = parts.first() {
            return match parts.len() {
                1 => Ast::Empty,
                2 => parts[1].clone(),
                _ => Ast::Concat(parts[1..].to_vec()),
            };
        }
    }
    ast.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_query_matches_containment() {
        let q = Query::keyword("President").unwrap();
        assert!(q.dfa.accepts("the President signed"));
        assert!(!q.dfa.accepts("the Presldent signed"));
        assert_eq!(q.anchor.as_deref(), Some("president"));
        assert_eq!(q.min_span(), 9);
        assert_eq!(q.max_span(), Some(9));
    }

    #[test]
    fn like_query_semantics() {
        let q = Query::like("%Ford%").unwrap();
        assert!(q.dfa.accepts("my Ford truck"));
        assert!(!q.dfa.accepts("my Frd truck"));
        assert_eq!(q.anchor.as_deref(), Some("ford"));
    }

    #[test]
    fn like_without_wildcards_is_exact() {
        let q = Query::like("Ford").unwrap();
        assert!(q.dfa.accepts("Ford"));
        assert!(!q.dfa.accepts("a Ford"));
    }

    #[test]
    fn regex_queries_from_the_paper() {
        let q = Query::regex(r"U.S.C. 2\d\d\d").unwrap();
        assert!(q.dfa.accepts("cf. U.S.C. 2345."));
        assert!(q.anchor.is_none()); // 'U' alone is too short to anchor
        let q = Query::regex(r"Public Law (8|9)\d").unwrap();
        assert_eq!(q.anchor.as_deref(), Some("public"));
        assert_eq!(q.min_span(), 13);
    }

    #[test]
    fn unbounded_patterns_report_no_max() {
        let q = Query::regex(r"Sec(\x)*\d").unwrap();
        assert_eq!(q.max_span(), None);
        assert_eq!(q.min_span(), 4);
    }

    #[test]
    fn bad_patterns_surface_errors() {
        assert!(Query::regex("a(b").is_err());
        assert!(Query::like("abc\\").is_err());
    }
}
