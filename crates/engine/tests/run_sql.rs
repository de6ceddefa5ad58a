//! The raw-SQL boundary: a statement is evaluated as sent, up to the
//! surrounding whitespace and trailing `;` the lexer would reject, so
//! every spelling of one statement yields one value, and a failing
//! statement is reported without touching later ones.

use scrutinizer_core::SystemConfig;
use scrutinizer_corpus::{Corpus, CorpusConfig};
use scrutinizer_engine::engine::{Engine, EngineError, EngineOptions};
use std::sync::Arc;

/// An engine over the small corpus plus one valid statement reading a
/// real cell (the first claim's first ground-truth lookup), written out
/// in the canonical spelling and four others.
fn engine_and_spellings() -> (Arc<Engine>, [String; 5]) {
    let corpus = Corpus::generate(CorpusConfig::small());
    let lookup = &corpus.claims[0].lookups[0];
    let (attribute, relation, key) = (&lookup.attribute, &lookup.relation, &lookup.key);
    let spellings = [
        format!("SELECT a.{attribute} FROM {relation} a WHERE a.Index = '{key}'"),
        // lowercase keywords
        format!("select a.{attribute} from {relation} a where a.Index = '{key}'"),
        // extra whitespace, inside and around
        format!("  \n SELECT   a.{attribute}\tFROM  {relation} a\n  WHERE a.Index  =  '{key}'  "),
        // trailing `;`, with and without a space before it
        format!("SELECT a.{attribute} FROM {relation} a WHERE a.Index = '{key}';"),
        format!("select a.{attribute} FROM {relation} a where a.Index = '{key}' ;  "),
    ];
    let engine = Engine::with_options(
        corpus,
        SystemConfig::test(),
        EngineOptions {
            retrain_interval: None,
            ..EngineOptions::default()
        },
    );
    (engine, spellings)
}

#[test]
fn every_spelling_evaluates_to_the_same_value() {
    let (engine, spellings) = engine_and_spellings();
    let expected = engine
        .run_sql(&spellings[0])
        .expect("valid statement evaluates");
    for spelling in &spellings[1..] {
        assert_eq!(
            engine.run_sql(spelling),
            Ok(expected),
            "spelling `{spelling}` evaluated differently"
        );
    }
    assert_eq!(engine.stats().sql_executed, spellings.len() as u64);
}

#[test]
fn failing_statement_is_a_sql_error_and_leaves_later_queries_alone() {
    let (engine, [sql, ..]) = engine_and_spellings();
    let value = engine.run_sql(&sql).expect("valid statement evaluates");
    for bad in ["SELECT nope", "SELECT nope ;", "SELECT a.x FROM Missing a"] {
        assert!(
            matches!(engine.run_sql(bad), Err(EngineError::Sql(_))),
            "`{bad}` must fail as a SQL error"
        );
        assert_eq!(engine.run_sql(&sql), Ok(value), "after `{bad}`");
    }
}
