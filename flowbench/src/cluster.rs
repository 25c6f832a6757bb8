//! Starts and stops the serving cluster the shipped way: two `served`
//! shard processes behind one `router` process, all on loopback.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use asicgap_serve::Client;

use crate::stats::peak_rss_mb;

/// Shard names on the consistent-hash ring.
pub const SHARDS: [&str; 2] = ["shard-a", "shard-b"];

/// One flow worker per shard, each single-threaded.
const SHARD_WORKERS: &str = "1";
const SHARD_THREADS: &str = "1";

/// In-memory (L1) outcome cache per shard, MiB. `served` sizes it in
/// whole MiB, and 1 MiB already holds every outcome a run produces, so
/// 0 is the only setting below the hot set: every outcome hit is then
/// an L2 (segment store) read.
const SHARD_CACHE_MB: &str = "0";

struct Proc {
    child: Child,
    /// Kept open so the process never sees a closed stdout.
    _stdout: BufReader<ChildStdout>,
}

pub struct Cluster {
    shards: Vec<Proc>,
    router: Option<Proc>,
    pub router_addr: SocketAddr,
    pub shard_addrs: Vec<SocketAddr>,
    dir: PathBuf,
}

/// Spawns `cmd` and scrapes the `... listening on ADDR` line it prints.
fn spawn(mut cmd: Command, what: &str) -> Result<(Proc, SocketAddr), String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {what}: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let read = stdout.read_line(&mut line);
    let addr = line.trim().rsplit(' ').next().and_then(|a| a.parse().ok());
    match (read, addr) {
        (Ok(_), Some(addr)) => Ok((
            Proc {
                child,
                _stdout: stdout,
            },
            addr,
        )),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(format!("{what} did not report its address (got {line:?})"))
        }
    }
}

impl Cluster {
    /// Starts both shards (fresh cache dirs under `dir`) and the router.
    pub fn start(bin_dir: &Path, dir: &Path) -> Result<Cluster, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir:?}: {e}"))?;
        let mut cluster = Cluster {
            shards: Vec::new(),
            router: None,
            router_addr: "127.0.0.1:0".parse().expect("literal addr"),
            shard_addrs: Vec::new(),
            dir: dir.to_path_buf(),
        };
        for name in SHARDS {
            let mut cmd = Command::new(bin_dir.join("served"));
            cmd.env("ASICGAP_THREADS", SHARD_THREADS).args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                SHARD_WORKERS,
                "--cache-mb",
                SHARD_CACHE_MB,
                "--shard",
                name,
                "--cache-dir",
            ]);
            cmd.arg(dir.join(name));
            let (proc, addr) = spawn(cmd, "served")?;
            cluster.shards.push(proc);
            cluster.shard_addrs.push(addr);
        }
        let mut cmd = Command::new(bin_dir.join("router"));
        cmd.args(["--addr", "127.0.0.1:0"]);
        for (name, addr) in SHARDS.iter().zip(&cluster.shard_addrs) {
            cmd.arg("--shard").arg(format!("{name}={addr}"));
        }
        let (proc, addr) = spawn(cmd, "router")?;
        cluster.router = Some(proc);
        cluster.router_addr = addr;
        Ok(cluster)
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect_retry(self.router_addr, Duration::from_secs(5))
            .map_err(|e| format!("connect to router: {e}"))
    }

    /// Sum of the shards' peak resident sets, MB.
    pub fn shard_peak_rss_mb(&self) -> Result<f64, String> {
        let mut total = 0.0;
        for s in &self.shards {
            total += peak_rss_mb(s.child.id())?;
        }
        Ok(total)
    }

    /// Drains the cluster through the router's `SHUTDOWN`, waits for
    /// every process, and removes the cache dirs.
    pub fn stop(mut self) -> Result<(), String> {
        let bye = self
            .client()
            .and_then(|mut c| c.shutdown().map_err(|e| format!("router shutdown: {e}")));
        let mut procs: Vec<Proc> = self.shards.drain(..).collect();
        procs.extend(self.router.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut clean = bye.is_ok();
        for p in &mut procs {
            loop {
                match p.child.try_wait() {
                    Ok(Some(status)) => {
                        clean &= status.success();
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        thread::sleep(Duration::from_millis(10))
                    }
                    _ => {
                        clean = false;
                        let _ = p.child.kill();
                        let _ = p.child.wait();
                        break;
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        bye?;
        if clean {
            Ok(())
        } else {
            Err("cluster did not shut down cleanly".to_string())
        }
    }
}

impl Drop for Cluster {
    /// Error paths: never leave a process behind.
    fn drop(&mut self) {
        for p in self.shards.iter_mut().chain(self.router.iter_mut()) {
            let _ = p.child.kill();
            let _ = p.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
