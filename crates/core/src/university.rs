//! The paper's running example: the university database of Figure 1.
//!
//! Eight relations — DEPARTMENT, PEOPLE, STUDENT, FACULTY, STAFF,
//! CURRICULUM, COURSES, GRADES — connected so that *courses and people
//! relate to a department, a person is either a student, a faculty, or a
//! staff, a curriculum describes the required courses for a given degree,
//! and grades are associated with courses and students*.
//!
//! Connection inventory (names are used throughout tests, dialogs and
//! experiments):
//!
//! | name                | shape                                  |
//! |---------------------|----------------------------------------|
//! | `courses_dept`      | COURSES —> DEPARTMENT                  |
//! | `people_dept`       | PEOPLE —> DEPARTMENT                   |
//! | `people_student`    | PEOPLE —⊃ STUDENT                      |
//! | `people_faculty`    | PEOPLE —⊃ FACULTY                      |
//! | `people_staff`      | PEOPLE —⊃ STAFF                        |
//! | `curriculum_courses`| CURRICULUM —> COURSES                  |
//! | `courses_grades`    | COURSES —* GRADES                      |
//! | `student_grades`    | STUDENT —* GRADES                      |

use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// Build the Figure 1 structural schema.
pub fn university_schema() -> StructuralSchema {
    StructuralSchemaBuilder::new()
        .relation(
            "DEPARTMENT",
            &[("dept_name", DataType::Text)],
            &["dept_name"],
        )
        .relation(
            "PEOPLE",
            &[
                ("ssn", DataType::Int),
                ("name", DataType::Text),
                ("dept_name", DataType::Text),
            ],
            &["ssn"],
        )
        .relation(
            "STUDENT",
            &[("ssn", DataType::Int), ("degree_program", DataType::Text)],
            &["ssn"],
        )
        .relation(
            "FACULTY",
            &[("ssn", DataType::Int), ("rank", DataType::Text)],
            &["ssn"],
        )
        .relation(
            "STAFF",
            &[("ssn", DataType::Int), ("title", DataType::Text)],
            &["ssn"],
        )
        .relation(
            "COURSES",
            &[
                ("course_id", DataType::Text),
                ("title", DataType::Text),
                ("level", DataType::Text),
                ("dept_name", DataType::Text),
            ],
            &["course_id"],
        )
        .relation(
            "CURRICULUM",
            &[("degree", DataType::Text), ("course_id", DataType::Text)],
            &["degree", "course_id"],
        )
        .relation(
            "GRADES",
            &[
                ("course_id", DataType::Text),
                ("ssn", DataType::Int),
                ("grade", DataType::Text),
            ],
            &["course_id", "ssn"],
        )
        .references(
            "courses_dept",
            "COURSES",
            &["dept_name"],
            "DEPARTMENT",
            &["dept_name"],
        )
        .references(
            "people_dept",
            "PEOPLE",
            &["dept_name"],
            "DEPARTMENT",
            &["dept_name"],
        )
        .subset("people_student", "PEOPLE", &["ssn"], "STUDENT", &["ssn"])
        .subset("people_faculty", "PEOPLE", &["ssn"], "FACULTY", &["ssn"])
        .subset("people_staff", "PEOPLE", &["ssn"], "STAFF", &["ssn"])
        .references(
            "curriculum_courses",
            "CURRICULUM",
            &["course_id"],
            "COURSES",
            &["course_id"],
        )
        .owns(
            "courses_grades",
            "COURSES",
            &["course_id"],
            "GRADES",
            &["course_id"],
        )
        .owns("student_grades", "STUDENT", &["ssn"], "GRADES", &["ssn"])
        .build()
        .expect("the Figure 1 schema is valid")
}

/// Seed the database with the small data set behind Figure 4: CS345 is a
/// graduate course with 3 enrolled students; CS101 is an undergraduate
/// course with many; EE282 is a graduate course with 6.
pub fn seed_figure4(db: &mut Database) -> Result<()> {
    for d in ["Computer Science", "Electrical Engineering"] {
        db.insert("DEPARTMENT", vec![d.into()])?;
    }
    // people 1..=10 are students; 20, 21 faculty; 30 staff
    for ssn in 1..=10i64 {
        db.insert(
            "PEOPLE",
            vec![
                ssn.into(),
                format!("student-{ssn}").into(),
                "Computer Science".into(),
            ],
        )?;
        db.insert(
            "STUDENT",
            vec![ssn.into(), if ssn % 2 == 0 { "MS" } else { "PhD" }.into()],
        )?;
    }
    for ssn in [20i64, 21] {
        db.insert(
            "PEOPLE",
            vec![
                ssn.into(),
                format!("faculty-{ssn}").into(),
                "Computer Science".into(),
            ],
        )?;
        db.insert("FACULTY", vec![ssn.into(), "Professor".into()])?;
    }
    db.insert(
        "PEOPLE",
        vec![
            30.into(),
            "staff-30".into(),
            "Electrical Engineering".into(),
        ],
    )?;
    db.insert("STAFF", vec![30.into(), "Administrator".into()])?;

    db.insert(
        "COURSES",
        vec![
            "CS345".into(),
            "Database Systems".into(),
            "graduate".into(),
            "Computer Science".into(),
        ],
    )?;
    db.insert(
        "COURSES",
        vec![
            "CS101".into(),
            "Introduction".into(),
            "undergraduate".into(),
            "Computer Science".into(),
        ],
    )?;
    db.insert(
        "COURSES",
        vec![
            "EE282".into(),
            "Computer Architecture".into(),
            "graduate".into(),
            "Electrical Engineering".into(),
        ],
    )?;
    // CS345: 3 students (Figure 4's "< 5 students" instance)
    for ssn in 1..=3i64 {
        db.insert("GRADES", vec!["CS345".into(), ssn.into(), "A".into()])?;
    }
    // CS101: 8 students
    for ssn in 1..=8i64 {
        db.insert("GRADES", vec!["CS101".into(), ssn.into(), "B".into()])?;
    }
    // EE282: 6 students
    for ssn in 1..=6i64 {
        db.insert("GRADES", vec!["EE282".into(), ssn.into(), "A".into()])?;
    }
    db.insert("CURRICULUM", vec!["MS".into(), "CS345".into()])?;
    db.insert("CURRICULUM", vec!["MS".into(), "CS101".into()])?;
    db.insert("CURRICULUM", vec!["PhD".into(), "CS345".into()])?;
    Ok(())
}

/// A freshly seeded university database.
pub fn university_database() -> (StructuralSchema, Database) {
    let schema = university_schema();
    let mut db = Database::from_schema(schema.catalog());
    seed_figure4(&mut db).expect("seed data is valid");
    (schema, db)
}

/// Deterministically seed the university schema at `scale`: per
/// department — 20 people (12 students, 5 faculty, 3 staff), 8 courses,
/// 4 grades per course, 2 curriculum rows per course.
pub fn seed_university_scaled(db: &mut Database, scale: i64, seed: u64) -> Result<()> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let grades = ["A", "B", "C", "D"];
    let levels = ["graduate", "undergraduate"];
    for d in 0..scale {
        let dept = format!("dept-{d}");
        db.insert("DEPARTMENT", vec![dept.clone().into()])?;
        let people_base = d * 20;
        for i in 0..20i64 {
            let ssn = people_base + i + 1;
            db.insert(
                "PEOPLE",
                vec![
                    ssn.into(),
                    format!("person-{ssn}").into(),
                    dept.clone().into(),
                ],
            )?;
            if i < 12 {
                db.insert(
                    "STUDENT",
                    vec![ssn.into(), if i % 2 == 0 { "MS" } else { "PhD" }.into()],
                )?;
            } else if i < 17 {
                db.insert("FACULTY", vec![ssn.into(), "Professor".into()])?;
            } else {
                db.insert("STAFF", vec![ssn.into(), "Administrator".into()])?;
            }
        }
        for c in 0..8i64 {
            let cid = format!("C{d}-{c}");
            db.insert(
                "COURSES",
                vec![
                    cid.clone().into(),
                    format!("course {d}.{c}").into(),
                    levels[(c % 2) as usize].into(),
                    dept.clone().into(),
                ],
            )?;
            // 4 distinct students of this department
            let mut chosen = std::collections::BTreeSet::new();
            while chosen.len() < 4 {
                chosen.insert(people_base + 1 + rng.gen_range_i64(0..12));
            }
            for ssn in chosen {
                db.insert(
                    "GRADES",
                    vec![
                        cid.clone().into(),
                        ssn.into(),
                        grades[rng.gen_range(0..grades.len())].into(),
                    ],
                )?;
            }
            for deg in ["MS", "PhD"] {
                db.insert("CURRICULUM", vec![deg.into(), cid.clone().into()])?;
            }
        }
    }
    Ok(())
}

/// A scaled university database.
pub fn university_scaled(scale: i64, seed: u64) -> (StructuralSchema, Database) {
    let schema = university_schema();
    let mut db = Database::from_schema(schema.catalog());
    seed_university_scaled(&mut db, scale, seed).expect("generated data is valid");
    (schema, db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_eight_relations_eight_connections() {
        let s = university_schema();
        assert_eq!(s.catalog().len(), 8);
        assert_eq!(s.connections().len(), 8);
    }

    #[test]
    fn seeded_database_is_consistent() {
        let (schema, db) = university_database();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        assert_eq!(db.table("COURSES").unwrap().len(), 3);
        assert_eq!(db.table("GRADES").unwrap().len(), 17);
    }

    #[test]
    fn schema_has_the_figure_2_circuit() {
        // the COURSES→DEPARTMENT←PEOPLE⊃STUDENT—*GRADES*—COURSES circuit
        let s = university_schema();
        assert!(s.has_circuit_from("COURSES"));
    }
}
