//! An ordering that resolves empty-handed still leaves its `order`
//! record: `--trace-out` is written on the failure path too, and the
//! process keeps the failure's exit code.

use std::path::PathBuf;
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gorder-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the CLI, checks its exit code, and returns the trace's `order`
/// records after the strict reader has validated every line.
fn orders_traced(args: &[&str], trace: &PathBuf, exit: i32) -> Vec<gorder_obs::OrderEvent> {
    let out = Command::new(env!("CARGO_BIN_EXE_gorder-cli"))
        .args(args)
        .arg("--trace-out")
        .arg(trace)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(exit),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(trace).expect("trace written");
    gorder_obs::validate_jsonl(&body).unwrap_or_else(|e| panic!("{e}"));
    let mut orders = Vec::new();
    gorder_obs::trace::read_jsonl(&body, false, |_, kind, f| {
        if kind == "order" {
            orders.push(gorder_obs::OrderEvent::decode(f)?);
        }
        Ok(())
    })
    .unwrap();
    orders
}

#[test]
fn a_timed_out_order_still_writes_its_order_record() {
    let dir = scratch("order-timeout");
    let input = dir.join("g.el");
    std::fs::write(&input, "0 1\n1 2\n2 0\n").unwrap();
    let input = input.to_str().unwrap();
    let output = dir.join("out.el");
    let output = output.to_str().unwrap();
    let trace = dir.join("t.jsonl");

    // RCM has no anytime path, so a zero budget leaves nothing usable.
    let args = ["order", input, output, "--method", "RCM", "--timeout", "0"];
    let orders = orders_traced(&args, &trace, 4);
    assert_eq!(orders.len(), 1, "{orders:?}");
    assert_eq!(
        (orders[0].name.as_str(), orders[0].status.as_str()),
        ("RCM", "timed-out")
    );
    assert!(
        !std::path::Path::new(output).exists(),
        "no output on a timeout"
    );

    // `run` traces the same record on the same path.
    let args = ["run", "BFS", input, "--method", "RCM", "--timeout", "0"];
    let orders = orders_traced(&args, &trace, 4);
    assert_eq!(orders.len(), 1, "{orders:?}");
    assert_eq!(orders[0].status, "timed-out");

    // A successful run traces it before the kernel record.
    let args = ["run", "BFS", input, "--method", "RCM"];
    let orders = orders_traced(&args, &trace, 0);
    assert_eq!(orders.len(), 1, "{orders:?}");
    assert_eq!(orders[0].status, "completed");
    let _ = std::fs::remove_dir_all(&dir);
}
