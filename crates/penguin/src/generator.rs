//! Workload and schema generators for the experiment harness.
//!
//! Two families:
//!
//! - [`seed_university_scaled`] populates the paper's Figure 1 schema at a
//!   parameterized scale (the benchmark workload: `scale` departments,
//!   each with people, courses, grades and curricula in fixed ratios);
//! - [`synthetic_schema`] builds structural schemas of controlled *shape*
//!   (chains, stars, ownership trees) and size, for the view-object
//!   generation sweeps (experiment G1).

use vo_core::prelude::*;

pub use vo_core::university::{seed_university_scaled, university_scaled};

/// Shapes of synthetic structural schemas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaShape {
    /// `R0 —* R1 —* R2 —* ...` — a single ownership chain.
    OwnershipChain,
    /// `R0 —* Ri` for all i — a flat ownership star around the pivot.
    OwnershipStar,
    /// Each `Ri —> R(i/2)` — a reference tree toward the root.
    ReferenceTree,
}

/// Build a synthetic schema of `n` relations in the given shape. Relation
/// `R0` is the intended pivot. Keys grow along ownership chains (each
/// owned relation adds one key attribute), as the structural model
/// requires.
pub fn synthetic_schema(shape: SchemaShape, n: usize) -> StructuralSchema {
    assert!(n >= 1);
    let mut b = StructuralSchemaBuilder::new();
    match shape {
        SchemaShape::OwnershipChain => {
            // R_i has key k0..ki
            for i in 0..n {
                let attrs: Vec<(String, DataType)> = (0..=i)
                    .map(|j| (format!("k{j}"), DataType::Int))
                    .chain([(format!("v{i}"), DataType::Text)])
                    .collect();
                let attr_refs: Vec<(&str, DataType)> =
                    attrs.iter().map(|(s, t)| (s.as_str(), *t)).collect();
                let keys: Vec<String> = (0..=i).map(|j| format!("k{j}")).collect();
                let key_refs: Vec<&str> = keys.iter().map(|s| s.as_str()).collect();
                b = b.relation(&format!("R{i}"), &attr_refs, &key_refs);
            }
            for i in 1..n {
                let from_keys: Vec<String> = (0..i).map(|j| format!("k{j}")).collect();
                let from_refs: Vec<&str> = from_keys.iter().map(|s| s.as_str()).collect();
                b = b.owns(
                    &format!("own{i}"),
                    &format!("R{}", i - 1),
                    &from_refs,
                    &format!("R{i}"),
                    &from_refs,
                );
            }
        }
        SchemaShape::OwnershipStar => {
            b = b.relation(
                "R0",
                &[("k0", DataType::Int), ("v0", DataType::Text)],
                &["k0"],
            );
            for i in 1..n {
                b = b
                    .relation(
                        &format!("R{i}"),
                        &[
                            ("k0", DataType::Int),
                            (&format!("k{i}"), DataType::Int),
                            (&format!("v{i}"), DataType::Text),
                        ],
                        &["k0", &format!("k{i}")],
                    )
                    .owns(&format!("own{i}"), "R0", &["k0"], &format!("R{i}"), &["k0"]);
            }
        }
        SchemaShape::ReferenceTree => {
            for i in 0..n {
                b = b.relation(
                    &format!("R{i}"),
                    &[
                        (&format!("k{i}"), DataType::Int),
                        ("parent", DataType::Int),
                        (&format!("v{i}"), DataType::Text),
                    ],
                    &[&format!("k{i}")],
                );
            }
            for i in 1..n {
                let parent = (i - 1) / 2;
                b = b.references(
                    &format!("ref{i}"),
                    &format!("R{i}"),
                    &["parent"],
                    &format!("R{parent}"),
                    &[&format!("k{parent}")],
                );
            }
        }
    }
    b.build()
        .expect("synthetic schemas are valid by construction")
}

/// Populate an ownership-chain schema: `fanout` children per tuple per
/// level, one root tuple.
pub fn seed_ownership_chain(db: &mut Database, depth: usize, fanout: i64) -> Result<()> {
    // R0 root
    db.insert("R0", vec![0i64.into(), "root".into()])?;
    let mut level_keys: Vec<Vec<Value>> = vec![vec![Value::Int(0)]];
    for i in 1..depth {
        let mut next = Vec::new();
        for parent in &level_keys {
            for c in 0..fanout {
                let mut vals: Vec<Value> = parent.clone();
                vals.push(Value::Int(c));
                let mut row = vals.clone();
                row.push(Value::text(format!("n{i}-{c}")));
                db.insert(&format!("R{i}"), row)?;
                next.push(vals);
            }
        }
        level_keys = next;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_university_is_consistent() {
        let (schema, db) = university_scaled(3, 42);
        assert!(check_database(&schema, &db).unwrap().is_empty());
        assert_eq!(db.table("DEPARTMENT").unwrap().len(), 3);
        assert_eq!(db.table("COURSES").unwrap().len(), 24);
        assert_eq!(db.table("GRADES").unwrap().len(), 96);
        assert_eq!(db.table("PEOPLE").unwrap().len(), 60);
    }

    #[test]
    fn scaling_is_linear_and_deterministic() {
        let (_, db1) = university_scaled(2, 7);
        let (_, db2) = university_scaled(2, 7);
        assert_eq!(db1.total_tuples(), db2.total_tuples());
        let g1: Vec<_> = db1.table("GRADES").unwrap().scan().cloned().collect();
        let g2: Vec<_> = db2.table("GRADES").unwrap().scan().cloned().collect();
        assert_eq!(g1, g2);
        let (_, db4) = university_scaled(4, 7);
        assert_eq!(
            db4.table("COURSES").unwrap().len(),
            2 * db1.table("COURSES").unwrap().len()
        );
    }

    #[test]
    fn chain_schema_generates_deep_trees() {
        let schema = synthetic_schema(SchemaShape::OwnershipChain, 5);
        assert_eq!(schema.catalog().len(), 5);
        let w = MetricWeights {
            threshold: 0.05,
            ..Default::default()
        };
        let tree = generate_tree(&schema, "R0", &w).unwrap();
        assert_eq!(tree.len(), 5); // the whole chain
        let obj = prune_by_relations(&schema, &tree, "chain", &["R1", "R2", "R3", "R4"]).unwrap();
        let analysis = analyze(&schema, &obj).unwrap();
        assert_eq!(analysis.island.len(), 5); // all ownership ⇒ all island
    }

    #[test]
    fn star_schema_fans_out() {
        let schema = synthetic_schema(SchemaShape::OwnershipStar, 9);
        let tree = generate_tree(&schema, "R0", &MetricWeights::default()).unwrap();
        assert_eq!(tree.len(), 9);
        assert_eq!(tree.nodes[0].children.len(), 8);
    }

    #[test]
    fn reference_tree_builds() {
        let schema = synthetic_schema(SchemaShape::ReferenceTree, 7);
        assert_eq!(schema.connections().len(), 6);
        // from R0, children reach via inverse references
        let w = MetricWeights {
            threshold: 0.2,
            ..Default::default()
        };
        let tree = generate_tree(&schema, "R0", &w).unwrap();
        assert!(tree.len() >= 3);
    }

    #[test]
    fn chain_seeding_consistent() {
        let schema = synthetic_schema(SchemaShape::OwnershipChain, 4);
        let mut db = Database::from_schema(schema.catalog());
        seed_ownership_chain(&mut db, 4, 3).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        assert_eq!(db.table("R0").unwrap().len(), 1);
        assert_eq!(db.table("R1").unwrap().len(), 3);
        assert_eq!(db.table("R2").unwrap().len(), 9);
        assert_eq!(db.table("R3").unwrap().len(), 27);
    }
}
