//! Minimal memory-mapped file support with a buffered-read fallback.
//!
//! The out-of-core trace reader ([`crate::MappedTrace`]) wants the
//! file's bytes addressable without staging them through heap buffers,
//! so chunk decode touches only the pages it reads and the kernel
//! evicts cold trace pages under memory pressure. The repo is
//! zero-dependency, so instead of pulling in `memmap2` this module
//! declares the two libc symbols it needs (`mmap`/`munmap` — libc is
//! already linked by `std`) behind `cfg(target_os = "linux")`, and
//! everywhere else — or whenever the syscall fails — falls back to
//! reading the whole file into a heap buffer. Both shapes hide behind
//! [`MapSource`], which hands out one contiguous `&[u8]`.

use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// A read-only memory mapping of an entire file.
#[cfg(target_os = "linux")]
pub struct Mmap {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MADV_WILLNEED: i32 = 3;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }
}

#[cfg(target_os = "linux")]
impl Mmap {
    /// Maps `len` bytes of `file` read-only.
    ///
    /// # Errors
    ///
    /// Fails when `len` is zero (the kernel rejects empty mappings —
    /// callers use a heap buffer instead) or when the `mmap` syscall
    /// itself fails.
    pub fn map(file: &File, len: usize) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot map an empty file",
            ));
        }
        // SAFETY: a fresh read-only private mapping of a file we hold
        // open; the kernel validates the fd and length. The result is
        // checked against MAP_FAILED (-1) before use.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let ptr = std::ptr::NonNull::new(ptr.cast::<u8>())
            .ok_or_else(|| io::Error::other("mmap returned null"))?;
        Ok(Mmap { ptr, len })
    }

    /// Hints the kernel that `len` bytes at `offset` will be read
    /// soon (`madvise(MADV_WILLNEED)`), so read-ahead overlaps with
    /// whatever the caller does next. Purely advisory: out-of-range
    /// requests are clamped and syscall errors ignored — prefetch can
    /// never turn into a failure.
    pub fn advise_willneed(&self, offset: u64, len: u64) {
        const PAGE: u64 = 4096;
        let Ok(map_len) = u64::try_from(self.len) else {
            return;
        };
        let start = (offset.min(map_len) / PAGE) * PAGE;
        let end = offset.saturating_add(len).min(map_len);
        if end <= start {
            return;
        }
        // SAFETY: the range lies inside the live mapping; MADV_WILLNEED
        // only schedules read-ahead and cannot alter the bytes.
        unsafe {
            sys::madvise(
                self.ptr.as_ptr().add(start as usize).cast(),
                (end - start) as usize,
                sys::MADV_WILLNEED,
            );
        }
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the mapping is PROT_READ, covers `len` bytes, and
        // lives until Drop. A concurrent writer to the underlying file
        // could change bytes under us, but the trace tooling treats
        // written corpora as immutable and every decoder validates
        // what it reads.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

// SAFETY: the mapping is read-only and the raw pointer is owned
// exclusively by this value, so moving it to another thread moves the
// sole owner of the mapping.
#[cfg(target_os = "linux")]
unsafe impl Send for Mmap {}
// SAFETY: the mapping is read-only, so sharing &Mmap across threads
// only ever reads the mapped pages.
#[cfg(target_os = "linux")]
unsafe impl Sync for Mmap {}

#[cfg(target_os = "linux")]
impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the region map() created; errors are
        // unrecoverable in Drop and ignored.
        unsafe {
            sys::munmap(self.ptr.as_ptr().cast(), self.len);
        }
    }
}

#[cfg(target_os = "linux")]
impl fmt::Debug for Mmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

/// One contiguous read-only byte view of a trace file: a page-cache
/// mapping when the platform provides one, a heap buffer otherwise.
pub enum MapSource {
    /// Kernel-backed mapping (linux).
    #[cfg(target_os = "linux")]
    Mapped(Mmap),
    /// The whole file (or an in-memory trace) in a heap buffer.
    Heap(Vec<u8>),
}

impl MapSource {
    /// Opens `path`, preferring a memory mapping and falling back to a
    /// buffered read when mapping is unavailable or fails.
    ///
    /// # Errors
    ///
    /// Propagates file-open and read errors.
    pub fn open(path: &Path) -> io::Result<MapSource> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file too large to address",
            ));
        }
        #[cfg(target_os = "linux")]
        if len > 0 {
            if let Ok(map) = Mmap::map(&file, len as usize) {
                return Ok(MapSource::Mapped(map));
            }
        }
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        Ok(MapSource::Heap(buf))
    }

    /// Reads `path` fully into a heap buffer, never mapping — the
    /// explicit fallback path (and the A/B baseline for benches).
    ///
    /// # Errors
    ///
    /// Propagates file-open and read errors.
    pub fn read(path: &Path) -> io::Result<MapSource> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(MapSource::Heap(buf))
    }

    /// The underlying bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(target_os = "linux")]
            MapSource::Mapped(map) => map.as_slice(),
            MapSource::Heap(buf) => buf,
        }
    }

    /// Prefetch hint for `len` bytes at `offset`: forwarded to
    /// `Mmap::advise_willneed` on a kernel mapping, a no-op for heap
    /// buffers (already resident).
    pub fn advise_willneed(&self, offset: u64, len: u64) {
        match self {
            #[cfg(target_os = "linux")]
            MapSource::Mapped(map) => map.advise_willneed(offset, len),
            MapSource::Heap(_) => {
                let _ = (offset, len);
            }
        }
    }

    /// Whether the bytes come from a kernel mapping (as opposed to a
    /// resident heap buffer).
    pub fn is_mapped(&self) -> bool {
        match self {
            #[cfg(target_os = "linux")]
            MapSource::Mapped(_) => true,
            MapSource::Heap(_) => false,
        }
    }
}

impl From<Vec<u8>> for MapSource {
    fn from(bytes: Vec<u8>) -> Self {
        MapSource::Heap(bytes)
    }
}

impl fmt::Debug for MapSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapSource")
            .field("len", &self.bytes().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fvl-mmap-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn mapped_and_read_agree() {
        let path = temp_path("agree");
        let payload: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        File::create(&path).unwrap().write_all(&payload).unwrap();
        let mapped = MapSource::open(&path).unwrap();
        let read = MapSource::read(&path).unwrap();
        assert_eq!(mapped.bytes(), payload.as_slice());
        assert_eq!(read.bytes(), payload.as_slice());
        assert!(!read.is_mapped());
        #[cfg(target_os = "linux")]
        assert!(mapped.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_yields_empty_bytes() {
        let path = temp_path("empty");
        File::create(&path).unwrap();
        let source = MapSource::open(&path).unwrap();
        assert!(source.bytes().is_empty());
        assert!(!source.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_errors() {
        assert!(MapSource::open(Path::new("/nonexistent/fvl-trace")).is_err());
    }

    #[test]
    fn advise_willneed_is_harmless_everywhere() {
        let path = temp_path("advise");
        let payload = vec![0xabu8; 100_000];
        File::create(&path).unwrap().write_all(&payload).unwrap();
        for source in [
            MapSource::open(&path).unwrap(),
            MapSource::read(&path).unwrap(),
        ] {
            source.advise_willneed(0, 4096);
            source.advise_willneed(50_000, u64::MAX); // clamped to the end
            source.advise_willneed(u64::MAX, 1); // entirely out of range
            assert_eq!(source.bytes(), payload.as_slice());
        }
        std::fs::remove_file(&path).unwrap();
    }
}
