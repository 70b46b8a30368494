//! Views of one trace: `plot`, `traits`, `callgraph`, `gprof` and `dump`.

use super::args::Args;
use super::{load_trace, CliError};
use tempest_core::plot::{ascii_plot, function_banner, TimeSeries};
use tempest_core::timeline::Timeline;
use tempest_sensors::SensorId;

/// The flag of `plot` and `traits`: which sensor index to read.
pub(super) const SENSOR: &str = "--sensor=";

pub(super) fn plot(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let path = &args.positional("trace file")?[0];
    let sensor: u16 = args.number("--sensor")?.unwrap_or(3);
    let trace = load_trace(path)?;
    let timeline = Timeline::build(&trace.events);
    let name_of = |id: u32| trace.function_name(tempest_probe::func::FunctionId(id));
    let label = trace
        .node
        .sensors
        .iter()
        .find(|s| s.id == SensorId(sensor))
        .map(|s| s.label.clone())
        .unwrap_or_else(|| format!("sensor{}", sensor + 1));
    let series = TimeSeries::from_samples(label, &trace.samples, SensorId(sensor), 0);
    if series.points.is_empty() {
        return Err(CliError::run(format!(
            "no samples for sensor index {sensor}"
        )));
    }
    let _ = writeln!(
        out,
        "function: {}",
        function_banner(&timeline, &name_of, 72)
    );
    let _ = write!(out, "{}", ascii_plot(&[series], 72, 16));
    Ok(())
}

pub(super) fn traits(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let path = &args.positional("trace file")?[0];
    let sensor: u16 = args.number("--sensor")?.unwrap_or(3);
    let trace = load_trace(path)?;
    let timeline = Timeline::build(&trace.events);
    let phases = tempest_core::phases::segment_phases(&trace.samples, SensorId(sensor), 4, 0.15);
    if phases.is_empty() {
        return Err(CliError::run("not enough samples to segment phases"));
    }
    let _ = writeln!(out, "thermal phases (sensor index {sensor}):");
    for p in &phases {
        let _ = writeln!(
            out,
            "  {:>8.1}s..{:>8.1}s  {:<8}  {:+6.2} F ({:+.3} F/s)",
            p.start_ns as f64 / 1e9,
            p.end_ns as f64 / 1e9,
            format!("{:?}", p.trend),
            p.delta_f,
            p.rate_f_per_s()
        );
    }
    let _ = writeln!(
        out,
        "
function thermal traits (dominant-phase warming rates):"
    );
    for t in tempest_core::phases::function_traits(&phases, &timeline) {
        let _ = writeln!(
            out,
            "  {:<20} {:+7.3} F/s over {:>7.1}s",
            trace.function_name(t.func),
            t.rate_f_per_s,
            t.seconds
        );
    }
    Ok(())
}

pub(super) fn callgraph(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let trace = load_trace(&args.positional("trace file")?[0])?;
    let graph = tempest_core::callgraph::CallGraph::build(&trace.events);
    let _ = write!(out, "{}", graph.render(&|f| trace.function_name(f)));
    Ok(())
}

pub(super) fn gprof(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let trace = load_trace(&args.positional("trace file")?[0])?;
    let flat = tempest_gprof::FlatProfile::from_events(&trace.events);
    let _ = write!(out, "{}", flat.render(&trace.functions));
    Ok(())
}

pub(super) fn dump(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let trace = load_trace(&args.positional("trace file")?[0])?;
    let _ = write!(out, "{}", trace.to_text());
    Ok(())
}
