//! Spawning the real `occ` binary and measuring it from outside: wall
//! clock from spawn to exit, plus the kernel's own CPU and peak-RSS
//! accounting for the reaped child (`wait4`).

use std::fs::{self, File};
use std::io;
use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

/// Linux `struct rusage`: two `timeval`s, then fourteen `long`s of which
/// the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    _rest: [c_long; 13],
}

impl RUsage {
    fn cpu_s(&self) -> f64 {
        let tv = |t: [c_long; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
        tv(self.utime) + tv(self.stime)
    }
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RUsage) -> c_int;
    fn getrusage(who: c_int, rusage: *mut RUsage) -> c_int;
}

/// User plus system CPU seconds this process has used so far.
pub fn self_cpu_s() -> f64 {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the Linux
    // layout; RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    ru.cpu_s()
}

/// Resident set size of this process now, in MiB (0 where `/proc` is
/// unavailable).
pub fn self_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One measured invocation.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Spawn to exit.
    pub wall_s: f64,
    /// `ru_utime + ru_stime` of the child.
    pub cpu_s: f64,
    /// `ru_maxrss` of the child, in KiB.
    pub maxrss_kib: u64,
    /// How the child ended.
    pub status: ExitStatus,
    /// Final size of every file the child left in its output directory.
    pub out_bytes: u64,
}

/// First argument that turns the harness binary into the spawn wrapper.
pub const SPAWN_FLAG: &str = "--spawn";

/// Run `occ argv…` as [`measure`] does, but from a fresh copy of this
/// binary started with [`SPAWN_FLAG`].
///
/// The kernel folds the peak RSS of the address space a process
/// `exec`s from into that process's `ru_maxrss`, and a spawned child
/// starts on its parent's address space. Spawning `occ` straight from
/// the harness would report the harness's own peak (fixtures, traced
/// passes) as `occ`'s; the wrapper's address space is a few MiB.
pub fn run(occ: &Path, argv: &[String], out_dir: &Path, log: &Path) -> io::Result<Sample> {
    let out = Command::new(std::env::current_exe()?)
        .arg(SPAWN_FLAG)
        .args([out_dir, log, occ])
        .args(argv)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<&str> = text.split_whitespace().collect();
    let bad = || io::Error::other(format!("spawn wrapper {}: {text:?}", out.status));
    if !out.status.success() || fields.len() != 5 {
        return Err(bad());
    }
    let num = |i: usize| fields[i].parse::<f64>().map_err(|_| bad());
    let int = |i: usize| fields[i].parse::<u64>().map_err(|_| bad());
    Ok(Sample {
        wall_s: num(0)?,
        cpu_s: num(1)?,
        maxrss_kib: int(2)?,
        status: ExitStatus::from_raw(fields[3].parse().map_err(|_| bad())?),
        out_bytes: int(4)?,
    })
}

/// The spawn wrapper: `SPAWN_FLAG OUT_DIR LOG OCC ARGV…` measures one
/// invocation and prints `wall_s cpu_s maxrss_kib wait_status out_bytes`.
pub fn spawn_main(args: &[String]) -> std::process::ExitCode {
    let [out_dir, log, occ, argv @ ..] = args else {
        eprintln!("occ-e2e {SPAWN_FLAG}: want OUT_DIR LOG OCC ARGV...");
        return std::process::ExitCode::from(2);
    };
    match measure(Path::new(occ), argv, Path::new(out_dir), Path::new(log)) {
        Ok(s) => {
            let status = s.status.into_raw();
            println!(
                "{} {} {} {status} {}",
                s.wall_s, s.cpu_s, s.maxrss_kib, s.out_bytes
            );
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("occ-e2e {SPAWN_FLAG}: run {occ}: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Run `occ argv…` with `out_dir` emptied beforehand, stdout discarded
/// and stderr captured to `log`, and wait for it to end.
pub fn measure(occ: &Path, argv: &[String], out_dir: &Path, log: &Path) -> io::Result<Sample> {
    match fs::remove_dir_all(out_dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    fs::create_dir_all(out_dir)?;
    let stderr = File::create(log)?;
    let started = Instant::now();
    let child = Command::new(occ)
        .args(argv)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()?;
    let pid = c_int::try_from(child.id()).expect("Linux pids fit in a c_int");
    let mut status: c_int = 0;
    let mut ru = RUsage::default();
    loop {
        // SAFETY: `status` and `ru` are live and writable for the call,
        // `ru` has the Linux `struct rusage` layout, and `pid` is our
        // own unreaped child (reaped only here, never by `child`).
        let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let mut out_bytes = 0;
    for entry in fs::read_dir(out_dir)? {
        out_bytes += entry?.metadata()?.len();
    }
    Ok(Sample {
        wall_s,
        cpu_s: ru.cpu_s(),
        maxrss_kib: u64::try_from(ru.maxrss).unwrap_or(0),
        status: ExitStatus::from_raw(status),
        out_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_child_and_its_output_files() {
        let dir = std::env::temp_dir().join(format!("occ-e2e-invoke-{}", std::process::id()));
        let out = dir.join("out");
        let log = dir.join("log");
        fs::create_dir_all(&dir).unwrap();
        let argv = [
            "-c".to_string(),
            "printf abcd > \"$0\"/f; exit 3".to_string(),
            out.display().to_string(),
        ];
        let s = measure(Path::new("/bin/sh"), &argv, &out, &log).unwrap();
        assert_eq!(s.status.code(), Some(3));
        assert_eq!(s.out_bytes, 4);
        assert!(s.wall_s > 0.0 && s.maxrss_kib > 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
