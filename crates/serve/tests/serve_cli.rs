//! The `shift-serve` command line: `--help` succeeds with the usage on
//! stdout, and an unknown flag is refused.

use std::process::Command;

fn shift_serve(arg: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_shift-serve"))
        .arg(arg)
        .output()
        .expect("run the shift-serve binary")
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    let output = shift_serve("--help");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(
        stdout.starts_with("usage: shift-serve --root DIR"),
        "stdout:\n{stdout}"
    );
    assert!(output.stderr.is_empty());
}

#[test]
fn an_unknown_flag_fails() {
    let output = shift_serve("--bogus");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("unknown flag \"--bogus\""),
        "stderr:\n{stderr}"
    );
}
