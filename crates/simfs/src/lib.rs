//! # rb-simfs — simulated file systems and the storage stack
//!
//! Three file-system models over the simulated disk — ext2-like (block
//! groups, bitmaps, indirect blocks), ext3-like (the ext2 layout
//! formatted with an ordered-mode journal,
//! [`ext2::Ext2Config::ext3_for_blocks`]) and xfs-like (allocation
//! groups, extents, log) — plus the [`stack::StorageStack`] composing
//! file system, page cache and device into the full storage hierarchy
//! the paper calls "middleware with layers above and below". ext3's
//! journal and xfs's log are one ring type, which differs only in the
//! blocks framing each transaction.
//!
//! File systems here are *layout engines*: they decide where bytes live
//! and which metadata blocks an operation touches; all data movement runs
//! through the shared cache and device models, so experiments isolate the
//! on-disk-layout dimension cleanly.
//!
//! ## Example
//!
//! ```
//! use rb_simfs::prelude::*;
//! use rb_simcore::units::Bytes;
//!
//! let mut fs = Ext2Fs::new(Ext2Config::for_blocks(65536));
//! let (ino, _) = fs.create("/hello").unwrap();
//! fs.set_size(ino, Bytes::mib(1)).unwrap();
//! assert_eq!(fs.attr(ino).unwrap().blocks, 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aging;
pub mod alloc;
pub mod ext2;
pub mod intern;
mod journal;
#[cfg(test)]
mod oracle;
mod slab;
pub mod stack;
pub mod tree;
pub mod vfs;
pub mod xfs;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::aging::{age_filesystem, AgingConfig, AgingReport};
    pub use crate::alloc::{BitmapAllocator, ExtentAllocator, Run};
    pub use crate::ext2::{Ext2Config, Ext2Fs};
    pub use crate::intern::{Interner, PathId, PathSpec, Symbol};
    pub use crate::stack::{Fd, StackConfig, StackStats, StorageStack, META_FILE};
    pub use crate::tree::{Inode, Tree, ROOT_INO};
    pub use crate::vfs::{Extent, FileAttr, FileSystem, InodeNo, MetaIo};
    pub use crate::xfs::{XfsConfig, XfsFs};
}
