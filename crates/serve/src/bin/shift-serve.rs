//! The `shift-serve` daemon binary.
//!
//! ```text
//! shift-serve --root serve-root [--listen 127.0.0.1:7513] [--unix PATH]
//!             [--threads N]
//! ```
//!
//! Boots the resident sweep scheduler, prints the bound address, and runs
//! until `POST /v1/shutdown` drains it. See `docs/OPERATIONS.md` ("Serve
//! mode") for the endpoint reference and the drain procedure.

use std::path::PathBuf;
use std::process::ExitCode;

use shift_serve::{ServeConfig, Server};

const USAGE: &str = "\
usage: shift-serve --root DIR [--listen ADDR] [--unix PATH] [--threads N]
";

struct Args {
    root: PathBuf,
    listen: String,
    unix: Option<PathBuf>,
    threads: Option<usize>,
}

/// The command line's settings, or `None` when it asks for `--help`.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        root: PathBuf::from("serve-root"),
        listen: "127.0.0.1:7513".to_owned(),
        unix: None,
        threads: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--listen" => args.listen = value("--listen")?,
            "--unix" => args.unix = Some(PathBuf::from(value("--unix")?)),
            "--threads" => {
                args.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?,
                )
            }
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut config = ServeConfig::new(&args.root);
    if let Some(threads) = args.threads {
        config.threads = threads.max(1);
    }
    let server = match Server::start_with_unix(config, args.listen.as_str(), args.unix.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("shift-serve: failed to start on {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "shift-serve listening on http://{} (root: {})",
        server.addr(),
        args.root.display()
    );
    if let Some(path) = &args.unix {
        println!(
            "shift-serve also listening on unix socket {}",
            path.display()
        );
    }
    server.join();
    println!("shift-serve drained and shut down");
    ExitCode::SUCCESS
}
