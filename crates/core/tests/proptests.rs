//! Property-based tests for the reporting layer and metric extraction:
//! arbitrary inputs must never panic and must preserve shape invariants.

use horizon_core::campaign::Measurement;
use horizon_core::metrics::Metric;
use horizon_core::report::{ascii_scatter, format_table};
use horizon_uarch::{Counters, CpiStack, PowerReport};
use proptest::prelude::*;

/// Generates counters that satisfy the invariants real campaigns produce:
/// instruction-class counts partition the instruction total, misses never
/// exceed accesses, and each level's misses feed the next level's accesses.
fn arbitrary_counters() -> impl Strategy<Value = Counters> {
    (
        1_000u64..1_000_000,
        0.0..0.35f64, // load fraction
        0.0..0.15f64, // store fraction
        0.0..0.25f64, // branch fraction
        0.0..0.15f64, // fp fraction
        0.0..1.0f64,  // L1 miss ratio
        0.0..1.0f64,  // L2 miss ratio
        0.0..1.0f64,  // L3 miss ratio
        0u64..20_000, // TLB walk scale
    )
        .prop_map(|(instructions, fl, fs, fb, ff, m1, m2, m3, walks)| {
            let frac = |f: f64| (instructions as f64 * f) as u64;
            let (loads, stores, branches, fp_ops) = (frac(fl), frac(fs), frac(fb), frac(ff));
            let l1d_accesses = loads + stores;
            let l1d_misses = (l1d_accesses as f64 * m1) as u64;
            let l2d_misses = (l1d_misses as f64 * m2) as u64;
            let l3_accesses = l2d_misses + (instructions as f64 * m1 * m2 / 64.0) as u64;
            let l3_misses = (l3_accesses as f64 * m3) as u64;
            Counters {
                instructions,
                loads,
                stores,
                branches,
                taken_branches: branches / 2,
                mispredicts: branches / 20,
                fp_ops,
                simd_ops: fp_ops / 4,
                kernel_instructions: instructions / 50,
                l1i_accesses: instructions,
                l1i_misses: (instructions as f64 * m1 / 32.0) as u64,
                l1d_accesses,
                l1d_misses,
                l2i_accesses: (instructions as f64 * m1 / 32.0) as u64,
                l2i_misses: (instructions as f64 * m1 * m2 / 64.0) as u64,
                l2d_accesses: l1d_misses,
                l2d_misses,
                l3_accesses,
                l3_misses,
                memory_accesses: l3_misses,
                itlb_misses: walks / 2,
                dtlb_misses: walks,
                page_walks_instruction: walks / 4,
                page_walks_data: walks / 2,
                dependency_intensity: 0.4,
                freq_ghz: 2.5,
                cpi_stack: CpiStack {
                    base: 0.25,
                    frontend: 0.1,
                    bad_speculation: 0.05,
                    memory: 0.2,
                    core: 0.1,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every Table III metric extracts a finite, non-negative value from
    /// any consistent counter set.
    #[test]
    fn metric_extraction_is_total(counters in arbitrary_counters()) {
        let m = Measurement {
            counters,
            power: PowerReport {
                core_watts: 10.0,
                llc_watts: 2.0,
                dram_watts: 3.0,
            },
        };
        for metric in Metric::table_iii().iter().chain(Metric::power_set().iter()) {
            let v = metric.extract(&m);
            prop_assert!(v.is_finite(), "{}: {v}", metric.label());
            prop_assert!(v >= 0.0, "{}: {v}", metric.label());
        }
    }

    /// format_table renders any cell contents with consistent geometry.
    #[test]
    fn format_table_never_panics(
        rows in proptest::collection::vec(
            proptest::collection::vec("[a-zA-Z0-9 .%-]{0,24}", 0..5),
            0..12,
        )
    ) {
        let table = format_table(&["col-a", "col-b", "col-c"], &rows);
        let lines: Vec<&str> = table.lines().collect();
        prop_assert_eq!(lines.len(), 2 + rows.len());
        // Separator is all dashes and at least as wide as the header.
        prop_assert!(lines[1].chars().all(|c| c == '-'));
        prop_assert!(lines[1].len() >= lines[0].trim_end().len());
    }

    /// The scatter renderer accepts any finite point cloud.
    #[test]
    fn ascii_scatter_never_panics(
        pts in proptest::collection::vec(
            (-1e6..1e6f64, -1e6..1e6f64),
            1..40,
        )
    ) {
        let points: Vec<(char, String, f64, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (char::from(b'a' + (i % 26) as u8), format!("p{i}"), x, y))
            .collect();
        let art = ascii_scatter(&points, 40, 12, "x", "y");
        // Grid rows plus axis plus legend lines.
        prop_assert!(art.lines().count() >= 12);
        // Every distinct marker appears somewhere.
        let markers: std::collections::HashSet<char> =
            points.iter().map(|p| p.0).collect();
        for m in markers {
            prop_assert!(art.contains(m), "marker {m} missing");
        }
    }
}

mod report_v1_props {
    use horizon_core::report_v1::{
        ErrorStatV1, ReportTableV1, ReportV1, SubsetV1, REPORT_SCHEMA_VERSION,
    };
    use proptest::prelude::*;

    /// Arbitrary report text cells: letters, digits, punctuation, quotes,
    /// a backslash, accented characters and a literal newline — the JSON
    /// layer must escape all of them correctly.
    const WILD: &str = "[a-zA-Z0-9 ._%()\"\\éñ\n-]{0,12}";

    fn arbitrary_report() -> impl Strategy<Value = ReportV1> {
        let table = (
            WILD,
            proptest::collection::vec(WILD, 0..4),
            proptest::collection::vec(proptest::collection::vec(WILD, 0..4), 0..3),
        )
            .prop_map(|(section, columns, rows)| ReportTableV1 {
                section,
                columns,
                rows,
            });
        let subset = (WILD, proptest::collection::vec(WILD, 0..4))
            .prop_map(|(context, members)| SubsetV1 { context, members });
        let error =
            (WILD, -1e9..1e9f64, -1e9..1e9f64).prop_map(|(context, average_pct, max_pct)| {
                ErrorStatV1 {
                    context,
                    average_pct,
                    max_pct,
                }
            });
        (
            WILD,
            WILD,
            proptest::collection::vec(table, 0..3),
            proptest::collection::vec(subset, 0..3),
            proptest::collection::vec(error, 0..3),
            proptest::collection::vec(WILD, 0..4),
        )
            .prop_map(
                |(experiment, title, tables, subsets, errors, notes)| ReportV1 {
                    schema_version: REPORT_SCHEMA_VERSION,
                    experiment,
                    title,
                    tables,
                    subsets,
                    errors,
                    notes,
                },
            )
    }

    proptest! {
        /// serialize → deserialize → identical report, for arbitrary
        /// content including quotes, backslashes and newlines.
        #[test]
        fn report_v1_json_round_trips(report in arbitrary_report()) {
            let json = serde_json::to_string(&report).unwrap();
            let back = ReportV1::from_json(&json).unwrap();
            prop_assert_eq!(back, report);
        }

        /// `from_text` accepts arbitrary text without panicking and always
        /// produces a current-schema report whose rows match their table's
        /// column count.
        #[test]
        fn from_text_never_panics_and_keeps_row_shape(text in "[a-zA-Z0-9 ._%()\n-]{0,300}") {
            let r = ReportV1::from_text("exp", &text);
            prop_assert_eq!(r.schema_version, REPORT_SCHEMA_VERSION);
            prop_assert!(r.validate().is_ok());
            for table in &r.tables {
                for row in &table.rows {
                    prop_assert_eq!(row.len(), table.columns.len());
                }
            }
        }

        /// `from_json` answers arbitrary input with `Ok` or `Err`, never a
        /// panic: any bytes (decoded lossily, since it takes `&str`) and
        /// soup drawn from the JSON alphabet.
        #[test]
        fn from_json_never_panics_on_arbitrary_text(
            bytes in proptest::collection::vec(0u32..256, 0..512),
            soup in "[{}[\":,.0-9a-z \\\\+-]{0,256}",
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            let _ = ReportV1::from_json(&String::from_utf8_lossy(&bytes));
            let _ = ReportV1::from_json(&soup);
        }

        /// A valid serialized report that was truncated is rejected, and
        /// one with a single bit flipped never panics.
        #[test]
        fn from_json_never_panics_on_damaged_reports(
            report in arbitrary_report(),
            cut in any::<usize>(),
            flip_at in any::<usize>(),
            flip_bit in 0u32..8,
        ) {
            let json = serde_json::to_string(&report).unwrap().into_bytes();
            let cut = cut % (json.len() + 1);
            let truncated = ReportV1::from_json(&String::from_utf8_lossy(&json[..cut]));
            prop_assert_eq!(truncated.is_ok(), cut == json.len());
            let mut flipped = json.clone();
            flipped[flip_at % json.len()] ^= 1 << flip_bit;
            let _ = ReportV1::from_json(&String::from_utf8_lossy(&flipped));
        }

        /// Tables rendered by `format_table` are recovered cell-for-cell.
        #[test]
        fn from_text_recovers_rendered_tables(
            (columns, rows) in (1..5usize).prop_flat_map(|cols| (
                proptest::collection::vec("[a-zA-Z0-9_.%]{1,7}", cols..=cols),
                proptest::collection::vec(
                    proptest::collection::vec("[a-zA-Z0-9_.%]{1,7}", cols..=cols),
                    1..4,
                ),
            ))
        ) {
            let headers: Vec<&str> = columns.iter().map(String::as_str).collect();
            let text = format!(
                "Sample title\n\n{}",
                horizon_core::report::format_table(&headers, &rows)
            );
            let r = ReportV1::from_text("exp", &text);
            prop_assert_eq!(r.tables.len(), 1);
            prop_assert_eq!(&r.tables[0].columns, &columns);
            prop_assert_eq!(&r.tables[0].rows, &rows);
            prop_assert_eq!(&r.tables[0].section, "Sample title");
        }
    }
}
