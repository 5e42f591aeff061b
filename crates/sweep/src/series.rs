//! CSV export of figure series.

use crate::figure::{FigureSeries, SolutionPoint};
use std::fmt::Write as _;

fn push_solution(line: &mut String, sol: Option<&SolutionPoint>) {
    match sol {
        Some(s) => {
            let _ = write!(
                line,
                ",{},{},{:.6},{:.6}",
                s.sigma1, s.sigma2, s.w_opt, s.energy_overhead
            );
        }
        None => line.push_str(",,,,"),
    }
}

/// Renders a figure series as CSV with the columns
/// `x, sigma1, sigma2, w_two, e_two, sigma, sigma(dup), w_one, e_one`
/// (one-speed columns repeat σ twice to keep the schema uniform).
/// Infeasible points have empty cells.
pub fn to_csv(series: &FigureSeries) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} — sweep of {} (rho = {})",
        series.config_name,
        series.param.label(),
        series.rho
    );
    out.push_str("x,sigma1,sigma2,w_two,e_two,sigma1_one,sigma2_one,w_one,e_one\n");
    for p in &series.points {
        let mut line = format!("{}", p.x);
        push_solution(&mut line, p.two_speed.as_ref());
        push_solution(&mut line, p.one_speed.as_ref());
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure::{sweep_figure, SweepParam};
    use crate::grid::Grid;
    use rexec_platforms::{configuration, ConfigId, PlatformId, ProcessorId};

    fn series() -> FigureSeries {
        let cfg = configuration(ConfigId {
            platform: PlatformId::Hera,
            processor: ProcessorId::IntelXScale,
        });
        sweep_figure(&cfg, SweepParam::Rho, &Grid::explicit(vec![1.0, 3.0]))
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = series();
        let csv = to_csv(&s);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("# Hera/XScale"));
        assert!(lines[1].starts_with("x,sigma1"));
        assert_eq!(lines.len(), 2 + 2);
        // ρ = 1 infeasible → empty cells; ρ = 3 feasible → numbers.
        assert!(lines[2].starts_with("1,,,"));
        assert!(lines[3].starts_with("3,0.4,0.4,"));
    }
}
