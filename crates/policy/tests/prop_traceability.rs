//! Property tests for the traceability analyzer.

use policy::{analyze, corpus, DataPractice, KeywordOntology, PrivacyPolicy, Traceability};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// The analyzer is total over arbitrary text.
    #[test]
    fn analyzer_is_total(text in "\\PC{0,400}", perm in "[a-z @]{0,30}") {
        let p = PrivacyPolicy::new("P", vec![text], false);
        let report = analyze(Some(&p), &[perm.as_str()], &KeywordOntology::standard());
        // Classification is always one of the three, and disclosures cover
        // exactly the requested permissions (when the page is substantive).
        if p.is_substantive() {
            prop_assert_eq!(report.permission_disclosures.len(), 1);
        }
        prop_assert!(report.disclosure_ratio() >= 0.0 && report.disclosure_ratio() <= 1.0);
    }

    /// Generated complete policies always classify complete; generated
    /// partial policies never do.
    #[test]
    fn corpus_classification_invariant(seed in any::<u64>()) {
        let ontology = KeywordOntology::standard();
        let mut rng = StdRng::seed_from_u64(seed);
        let complete = corpus::complete_policy(&mut rng, "B", seed.is_multiple_of(2));
        prop_assert_eq!(
            analyze(Some(&complete), &[], &ontology).classification,
            Traceability::Complete
        );
        let partial = corpus::partial_policy(&mut rng, "B", &[DataPractice::Retain], true);
        let c = analyze(Some(&partial), &[], &ontology).classification;
        prop_assert_ne!(c, Traceability::Complete);
        prop_assert_ne!(c, Traceability::Broken);
    }

    /// Adding keywords can only move classifications toward Complete.
    #[test]
    fn extra_keywords_are_monotone(text in "[a-z ]{20,120}", extra in "[a-z]{3,10}") {
        let base = KeywordOntology::standard();
        let mut extended = KeywordOntology::standard();
        extended.add_keyword(DataPractice::Disclose, &extra);
        let p = PrivacyPolicy::new("P", vec![format!("{text} padding words for substantiveness here")], false);
        let rank = |c: Traceability| match c {
            Traceability::Complete => 2,
            Traceability::Partial => 1,
            Traceability::Broken => 0,
        };
        let before = rank(analyze(Some(&p), &[], &base).classification);
        let after = rank(analyze(Some(&p), &[], &extended).classification);
        prop_assert!(after >= before);
    }
}
