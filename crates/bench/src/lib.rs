//! # lgv-bench
//!
//! The evaluation harness: every table and figure of the paper's
//! evaluation section is one registered [`suite`] scenario, run,
//! printed, traced and gated through the `suite` binary (see
//! `src/bin/suite.rs`). `EXPERIMENTS.md` records paper-reported vs
//! measured values.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use lgv_sim::world::World;
use lgv_sim::{Lidar, LidarConfig};
use lgv_types::prelude::*;
use std::io::{self, Write};

pub mod gate;
pub mod scenarios;
pub mod suite;

/// A deterministic scan/odometry stream: a scripted tour through a
/// world, sampled by the standard lidar. Feeds the Fig. 9 SLAM
/// scenario the same kind of data the Intel Research Lab
/// dataset gives the paper (see DESIGN.md substitution table).
pub struct ScanStream {
    world: World,
    lidar: Lidar,
    pose: Pose2D,
    twist: Twist,
    t: SimTime,
    step: Duration,
    k: u32,
}

impl ScanStream {
    /// A stream starting at `start`, driving gentle arcs.
    pub fn new(world: World, start: Pose2D, seed: u64) -> Self {
        ScanStream {
            world,
            lidar: Lidar::new(LidarConfig::default(), SimRng::seed_from_u64(seed)),
            pose: start,
            twist: Twist::new(0.15, 0.0),
            t: SimTime::EPOCH,
            step: Duration::from_millis(200),
            k: 0,
        }
    }

    /// Next (odometry, scan) pair.
    pub fn next_pair(&mut self) -> (OdometryMsg, LaserScan) {
        // Gentle S-curve steering, reversing if about to collide.
        self.k += 1;
        let steer = 0.4 * ((self.k as f64) * 0.12).sin();
        self.twist = Twist::new(0.15, steer);
        let next = self.pose.integrate(self.twist, self.step.as_secs_f64());
        if !self.world.collides_disc(next.position(), 0.18) {
            self.pose = next;
        } else {
            // Turn in place away from the obstacle.
            self.pose = Pose2D::new(self.pose.x, self.pose.y, self.pose.theta + 0.5);
        }
        self.t += self.step;
        let odom = OdometryMsg {
            stamp: self.t,
            pose: self.pose,
            twist: self.twist,
        };
        let scan = self.lidar.scan(&self.world, self.pose, self.t);
        (odom, scan)
    }
}

/// Simple fixed-width table printer for the scenarios, with CSV
/// export so downstream plotting scripts can consume the same data.
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Start a table with column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TablePrinter {
            headers: headers.into_iter().map(|s| s.into()).collect(),
            rows: vec![],
        }
    }

    /// Append a row.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        self.rows
            .push(cells.into_iter().map(|s| s.into()).collect());
    }

    /// Render to stdout.
    pub fn print(&self) {
        self.write_to(&mut io::stdout())
            .expect("stdout write failed");
    }

    /// Render into an arbitrary writer (the suite runner captures
    /// scenario output this way to checksum it).
    pub fn write_to(&self, out: &mut dyn Write) -> io::Result<()> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                } else {
                    widths.push(c.len());
                }
            }
        }
        let line = |out: &mut dyn Write, cells: &[String]| -> io::Result<()> {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let w = widths.get(i).copied().unwrap_or(c.len());
                s.push_str(&format!("{c:>w$}  "));
            }
            writeln!(out, "{}", s.trim_end())
        };
        line(out, &self.headers)?;
        writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        )?;
        for row in &self.rows {
            line(out, row)?;
        }
        Ok(())
    }

    /// Render as CSV (RFC-4180-style quoting for commas/quotes).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| field(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write the table as `target/figures/<name>.csv` (best effort:
    /// warns on stderr instead of failing the scenario on IO errors)
    /// and return the path on success. The `(csv: …)` confirmation
    /// line goes to `out`, so captured scenario output stays
    /// self-contained. Scenario names are unique, so concurrent suite
    /// jobs never write the same CSV path.
    pub fn save_csv_to(
        &self,
        out: &mut dyn Write,
        name: &str,
    ) -> io::Result<Option<std::path::PathBuf>> {
        let dir = std::path::Path::new("target").join("figures");
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {dir:?}: {e}");
            return Ok(None);
        }
        let path = dir.join(format!("{name}.csv"));
        match std::fs::write(&path, self.to_csv()) {
            Ok(()) => {
                writeln!(out, "(csv: {})", path.display())?;
                Ok(Some(path))
            }
            Err(e) => {
                eprintln!("warning: cannot write {path:?}: {e}");
                Ok(None)
            }
        }
    }
}

/// Write a figure/table banner into a scenario's output.
pub fn write_banner(out: &mut dyn Write, title: &str, paper_claim: &str) -> io::Result<()> {
    writeln!(out)?;
    writeln!(out, "==== {title} ====")?;
    writeln!(out, "paper: {paper_claim}")?;
    writeln!(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgv_sim::world::presets;

    #[test]
    fn scan_stream_is_deterministic_and_collision_free() {
        let mut a = ScanStream::new(presets::intel_like(), presets::intel_start(), 1);
        let mut b = ScanStream::new(presets::intel_like(), presets::intel_start(), 1);
        for _ in 0..50 {
            let (oa, sa) = a.next_pair();
            let (ob, sb) = b.next_pair();
            assert_eq!(oa.pose, ob.pose);
            assert_eq!(sa.ranges, sb.ranges);
            assert!(!presets::intel_like().collides_disc(oa.pose.position(), 0.1));
        }
    }

    #[test]
    fn table_printer_does_not_panic() {
        let mut t = TablePrinter::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let mut out = Vec::new();
        t.write_to(&mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "  a  b\n--------\n  1  2\n333  4\n"
        );
    }

    #[test]
    fn csv_rendering_and_quoting() {
        let mut t = TablePrinter::new(vec!["name", "value"]);
        t.row(vec!["plain", "1"]);
        t.row(vec!["with,comma", "with\"quote"]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1");
        assert_eq!(lines[2], "\"with,comma\",\"with\"\"quote\"");
    }

    #[test]
    fn save_csv_writes_file() {
        let mut t = TablePrinter::new(vec!["x"]);
        t.row(vec!["7"]);
        let mut out = Vec::new();
        if let Some(path) = t.save_csv_to(&mut out, "test_table").unwrap() {
            assert!(String::from_utf8(out).unwrap().contains("test_table.csv"));
            let content = std::fs::read_to_string(&path).unwrap();
            assert!(content.contains("7"));
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn rows_wider_than_the_header_still_align() {
        let mut t = TablePrinter::new(vec!["a", "b"]);
        t.row(vec!["1", "2", "xyz"]);
        let mut out = Vec::new();
        t.write_to(&mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "a  b\n-----------\n1  2  xyz\n"
        );
    }

    #[test]
    fn csv_quotes_embedded_line_breaks() {
        let mut t = TablePrinter::new(vec!["note"]);
        t.row(vec!["two\nlines"]);
        assert_eq!(t.to_csv(), "note\n\"two\nlines\"\n");
    }

    #[test]
    fn banner_frames_the_title_and_the_claim() {
        let mut out = Vec::new();
        write_banner(&mut out, "Fig. 12", "4-5x faster").unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "\n==== Fig. 12 ====\npaper: 4-5x faster\n\n"
        );
    }
}
