//! `ecost_cli` exit codes: malformed arguments are usage errors (exit 2)
//! with a message on stderr and nothing on stdout.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ecost_cli"))
        .args(args)
        .output()
        .expect("run ecost_cli")
}

#[test]
fn unknown_size_is_a_usage_error() {
    for args in [
        &["tune", "wc", "7"][..],
        &["sweep", "wc", "x"],
        &["pair", "wc", "st", "0"],
    ] {
        let out = cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown size"), "{args:?}: {err}");
    }
}

#[test]
fn unknown_app_and_command_are_usage_errors() {
    for args in [&["tune", "nosuchapp"][..], &["sweep"], &["frobnicate"], &[]] {
        assert_eq!(cli(args).status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn listing_the_catalog_succeeds() {
    let out = cli(&["apps"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wc"));
}
