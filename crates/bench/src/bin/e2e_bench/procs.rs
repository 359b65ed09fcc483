//! Child processes and scratch directories, each behind a guard that
//! cleans up on success, error or panic.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a spawned server may take to print its address.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(60);

/// The `trustmap` binary, expected beside this benchmark's own executable
/// (one `cargo build` target directory holds both).
pub fn trustmap_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let exe = me.with_file_name("trustmap");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "{} is missing: build it first with `cargo build --release --workspace` \
             (the benchmark drives the real binary as a child process)",
            exe.display()
        ))
    }
}

/// A per-process scratch directory beside the executable, removed on drop.
/// Everything the benchmark writes (stores, network files, CLI output)
/// lives under it, so a run never leaves its checkout.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = me.with_file_name(format!("e2e_tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// A path under the scratch directory (not created).
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// A fresh, empty directory path under the scratch directory: anything
    /// a previous set-up left under that name is removed first.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let path = self.path(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Peak resident set (`VmHWM`) of a live process, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A running `trustmap serve` / `trustmap follow` child. Dropping it
/// kills the process, reaps it and joins the thread draining its stdout.
#[derive(Debug)]
pub struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// The ephemeral address the child reported.
    pub addr: String,
}

impl Server {
    /// Spawns `exe args…` and waits for the stdout line containing
    /// `marker`; the word after it is the bound address. The rest of the
    /// child's stdout is drained on a thread so it can never block on a
    /// full pipe.
    fn spawn(exe: &Path, args: &[&str], marker: &'static str) -> Result<Server, String> {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { return };
                if let Some(rest) = line.split(marker).nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut server = Server {
            child,
            drain: Some(drain),
            addr: String::new(),
        };
        // On timeout or early exit `server` drops here and reaps the child.
        server.addr = rx.recv_timeout(STARTUP_TIMEOUT).map_err(|_| {
            format!(
                "`trustmap {}` never printed `{marker}<addr>`",
                args.join(" ")
            )
        })?;
        Ok(server)
    }

    /// `trustmap serve <dir> 127.0.0.1:0` with default settings.
    pub fn serve(exe: &Path, dir: &Path) -> Result<Server, String> {
        let dir = dir.to_str().ok_or("non-UTF-8 store path")?;
        Server::spawn(exe, &["serve", dir, "127.0.0.1:0"], "serving on ")
    }

    /// `trustmap follow <dir> <leader> 127.0.0.1:0` with default settings.
    pub fn follow(exe: &Path, dir: &Path, leader: &str) -> Result<Server, String> {
        let dir = dir.to_str().ok_or("non-UTF-8 store path")?;
        Server::spawn(
            exe,
            &["follow", dir, leader, "127.0.0.1:0"],
            "replica reads on ",
        )
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }

    /// `SIGKILL`s the process and reaps it (what `Drop` does, but named at
    /// the call sites that time a crash).
    pub fn kill(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One finished CLI invocation.
#[derive(Debug)]
pub struct CliRun {
    pub wall: Duration,
    pub peak_rss_mb: f64,
}

/// Runs `exe args…` to completion with stdout redirected to `stdout_to`,
/// timing spawn → exit and sampling the child's peak RSS while it runs
/// (`/proc/<pid>` is gone once it has been reaped).
pub fn run_cli(exe: &Path, args: &[&str], stdout_to: &Path) -> Result<CliRun, String> {
    let out =
        std::fs::File::create(stdout_to).map_err(|e| format!("{}: {e}", stdout_to.display()))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (status, peak) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0.0f64;
            while !done.load(Ordering::Acquire) {
                if let Some(mb) = peak_rss_mb(pid) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            peak
        });
        let status = child.wait();
        done.store(true, Ordering::Release);
        (status, sampler.join().expect("rss sampler"))
    });
    let wall = start.elapsed();
    let status = status.map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`trustmap {}` exited with {status}",
            args.join(" ")
        ));
    }
    Ok(CliRun {
        wall,
        peak_rss_mb: peak,
    })
}
