//! Commands that make traces or read sensors: `demo` simulates a
//! cluster run, `record` profiles a native micro-benchmark, `sensors`
//! samples this host once.

use super::args::Args;
use super::CliError;
use std::path::PathBuf;
use tempest_cluster::{ClusterRun, ClusterRunConfig};
use tempest_workloads::npb::NpbBenchmark;
use tempest_workloads::Class;

pub(super) const DEMO: &str = "--class= --np= --out=";

pub(super) fn demo(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let workload = args.positional("workload")?[0].as_str();
    let class = args.value("--class").unwrap_or("A").to_ascii_uppercase();
    let class = Class::ALL
        .into_iter()
        .find(|c| c.to_string() == class)
        .ok_or_else(|| CliError::usage(format!("unknown class `{class}`")))?;
    let np: usize = args.number("--np")?.unwrap_or(4);
    let dir = PathBuf::from(args.value("--out").unwrap_or("traces"));

    let programs = match workload {
        "micro-d" => vec![tempest_workloads::micro::program(
            tempest_workloads::micro::Micro::D,
            30.0,
            2.0,
        )],
        name => {
            let bench = NpbBenchmark::ALL
                .into_iter()
                .find(|b| b.name() == name)
                .ok_or_else(|| CliError::usage(format!("unknown workload `{name}`")))?;
            bench.programs(class, np)
        }
    };
    let cfg = ClusterRunConfig::paper_default();
    let run = ClusterRun::execute(&cfg, &programs);
    std::fs::create_dir_all(&dir).map_err(|e| CliError::run(format!("{}: {e}", dir.display())))?;
    for trace in &run.traces {
        let path = dir.join(format!("{workload}-node{}.trace", trace.node.node_id));
        trace
            .save(&path)
            .map_err(|e| CliError::run(format!("{}: {e}", path.display())))?;
        let _ = writeln!(
            out,
            "wrote {} ({} events, {} samples)",
            path.display(),
            trace.events.len(),
            trace.samples.len()
        );
    }
    let _ = writeln!(
        out,
        "simulated {:.1}s on {} node(s); next: tempest report {}/{workload}-node0.trace",
        run.engine.end_ns as f64 / 1e9,
        run.traces.len(),
        dir.display()
    );
    Ok(())
}

pub(super) const RECORD: &str = "--out=";

pub(super) fn record(args: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use tempest_workloads::micro::{run_native, Micro, MicroConfig};
    let which = &args.positional("micro-benchmark (a-e)")?[0];
    let micro = match which.to_ascii_lowercase().as_str() {
        "a" => Micro::A,
        "b" => Micro::B,
        "c" => Micro::C,
        "d" => Micro::D,
        "e" => Micro::E,
        other => {
            return Err(CliError::usage(format!(
                "unknown micro-benchmark `{other}`"
            )))
        }
    };
    let dir = PathBuf::from(args.value("--out").unwrap_or("traces"));
    std::fs::create_dir_all(&dir).map_err(|e| CliError::run(format!("{}: {e}", dir.display())))?;

    // Real instrumentation; real hwmon sensors when present, simulated
    // Opteron bank otherwise (the portable fallback of §3.4).
    let hw = tempest_sensors::hwmon::HwmonSource::discover();
    let source: Box<dyn tempest_sensors::SensorSource> = if hw.is_available() {
        Box::new(hw)
    } else {
        Box::new(tempest_sensors::sim::SimulatedSensorBank::new(
            tempest_sensors::platform::PlatformSpec::opteron_full(),
            tempest_sensors::node_model::NodeThermalModel::new(
                tempest_sensors::node_model::NodeThermalParams::opteron_node(),
            ),
            7,
            0.1,
        ))
    };
    let session = tempest_probe::ProfilingSession::start_with_sensors(
        std::sync::Arc::new(tempest_probe::MonotonicClock::new()),
        source,
        tempest_probe::tempd::TempdConfig::at_rate(20.0),
    );
    {
        let tp = session.thread_profiler();
        run_native(micro, MicroConfig::default(), &tp);
    }
    let trace = session.finish();
    let path = dir.join(format!("micro-{}.trace", which.to_ascii_lowercase()));
    trace
        .save(&path)
        .map_err(|e| CliError::run(format!("{}: {e}", path.display())))?;
    let _ = writeln!(
        out,
        "recorded {} ({} events, {} samples over {:.3} s)",
        path.display(),
        trace.events.len(),
        trace.samples.len(),
        trace.span_ns() as f64 / 1e9
    );
    Ok(())
}

pub(super) fn sensors(_: &Args, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use tempest_sensors::source::SensorSource;
    let mut hw = tempest_sensors::hwmon::HwmonSource::discover();
    if !hw.is_available() {
        let _ = writeln!(
            out,
            "no hwmon/thermal sensors exposed on this host (container/VM?)"
        );
        return Ok(());
    }
    let readings = hw.sample_all(0);
    for (info, r) in hw.sensors().iter().zip(&readings) {
        let _ = writeln!(
            out,
            "{:<32} {:<12} {:>7.1} C",
            info.label,
            format!("{:?}", info.kind),
            r.temperature.celsius()
        );
    }
    Ok(())
}
