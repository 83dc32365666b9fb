//! What the benchmark asks of the host: one CPU to itself, and a record of
//! the environment a result was measured in.

use std::cell::RefCell;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on, ascending.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread — and every thread it spawns afterwards, which
/// inherit the mask — to the highest-numbered CPU it is allowed on.
/// Returns `(cpus allowed before pinning, pinned cpu)`, the latter −1 if
/// pinning failed. Client, accept thread and pool worker then share one
/// CPU: the loop is closed with one client, so no parallelism is lost, and
/// the cross-CPU wake-ups that dominate loopback latency are gone.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> (usize, i64) {
    let allowed = allowed_cpus();
    let Some(&cpu) = allowed.last() else {
        return (0, -1);
    };
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is a valid buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    (allowed.len(), if rc == 0 { cpu as i64 } else { -1 })
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> (usize, i64) {
    (0, -1)
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:", 0).map_or(0.0, |kb| kb / 1024.0)
}

/// Loopback sockets in `TIME_WAIT` (one connection per request leaves one
/// behind each; recorded, never waited on).
pub fn time_wait_sockets() -> f64 {
    proc_field("/proc/net/sockstat", "TCP:", 5).unwrap_or(0.0)
}

/// The number `skip` whitespace-separated fields after `key` on the line
/// of `path` that starts with `key`.
fn proc_field(path: &str, key: &str, skip: usize) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().nth(skip)?.parse().ok()
}

/// What the reference kernel takes on a quiet host of the class this
/// benchmark was sized on; the unit reported times are expressed in.
pub const NOMINAL_REF_MS: f64 = 0.08;

/// Round trips per reference reading: untimed ones first, so the reading
/// does not depend on what the work before it left in the caches.
const ECHO_WARM_TRIPS: usize = 8;
const ECHO_TIMED_TRIPS: usize = 16;

/// The far end of the reference kernel: a thread echoing 64-byte messages
/// over one established loopback connection until the near end closes.
struct Echo {
    near: TcpStream,
    far: Option<JoinHandle<()>>,
}

impl Echo {
    fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        near.set_nodelay(true)?;
        let (mut accepted, _) = listener.accept()?;
        accepted.set_nodelay(true)?;
        let far = std::thread::Builder::new()
            .name("qrs-bench-echo".into())
            .spawn(move || {
                let mut message = [0u8; 64];
                while accepted.read_exact(&mut message).is_ok()
                    && accepted.write_all(&message).is_ok()
                {}
            })?;
        Ok(Echo {
            near,
            far: Some(far),
        })
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // Closing the near end ends the far end's read loop.
        let _ = self.near.shutdown(std::net::Shutdown::Both);
        if let Some(far) = self.far.take() {
            let _ = far.join();
        }
    }
}

/// The reference kernel: sixteen 64-byte round trips to an echo thread over
/// one established loopback connection — system calls, the TCP stack and
/// two context switches per trip, all code no change to the repo can touch.
/// Its time moves only when the host does. Of the kernels tried (sorts in
/// L1 and L2, map look-ups, pointer chases, channel and connect-per-ping
/// round trips) it is the one whose time moves most nearly in proportion
/// to every workload's (log-log slope 0.9–1.0 on identical passes), so a
/// latency divided by the kernel's time next to it is a measurement the
/// host's slow episodes largely cancel out of. Returns milliseconds.
pub fn reference_kernel_ms() -> f64 {
    thread_local! {
        static ECHO: RefCell<Echo> = RefCell::new(Echo::start().expect("loopback echo"));
    }
    ECHO.with_borrow_mut(|echo| {
        let mut message = [7u8; 64];
        let mut round_trips = |n| {
            for _ in 0..n {
                echo.near.write_all(&message).expect("echo write");
                echo.near.read_exact(&mut message).expect("echo read");
            }
        };
        round_trips(ECHO_WARM_TRIPS);
        let t0 = Instant::now();
        round_trips(ECHO_TIMED_TRIPS);
        t0.elapsed().as_secs_f64() * 1e3
    })
}

/// Run `work` between two reference readings; returns its result and its
/// wall-clock time in reference milliseconds.
pub fn ref_timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let before = reference_kernel_ms();
    let t0 = Instant::now();
    let out = work();
    let raw_ms = t0.elapsed().as_secs_f64() * 1e3;
    let after = reference_kernel_ms();
    (out, raw_ms * NOMINAL_REF_MS * 2.0 / (before + after))
}
