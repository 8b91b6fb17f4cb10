//! The high-level I/O service interface and the load-module switchboard.
//!
//! "Roccom enables Rocpanda and Rochdf to encapsulate all lower-level I/O
//! operations into three high-level, file-format-independent, collective
//! operations: `read_attribute`, `write_attribute`, and `sync`. … An
//! application code invokes the I/O operations through
//! `COM_call_function`, which automatically selects the appropriate
//! function, depending on which module is loaded at the beginning of the
//! run. Switching between collective I/O and individual I/O is done by
//! simply loading a different I/O service module" (§5).

use std::collections::BTreeMap;

use rocio_core::{Result, RocError, SnapshotId};

use crate::selector::AttrSelector;
use crate::windows::Windows;

/// One I/O service module (Rocpanda, Rochdf, T-Rochdf…).
///
/// All three operations are *collective*: every compute process calls them
/// together, and their blocking semantics are those of plain blocking I/O —
/// "users can reuse their output buffers immediately after the output
/// function returns" (§6) — regardless of what buffering happens inside.
pub trait IoService {
    /// Module name (used by the switchboard).
    fn service_name(&self) -> &'static str;

    /// Collectively write the selected attributes of every local pane as
    /// part of snapshot `snap`.
    fn write_attribute(
        &mut self,
        windows: &Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()>;

    /// Collectively read the selected attributes back from snapshot `snap`
    /// (restart).
    fn read_attribute(
        &mut self,
        windows: &mut Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()>;

    /// Wait for all previously issued output to be durable. "The sync
    /// interface is designed for performance analysis and debugging when
    /// I/O is overlapped with computation" (§5).
    fn sync(&mut self) -> Result<()>;

    /// Delete the files of an old snapshot (retention management —
    /// "having so many files certainly brings file management problems
    /// for production runs", §4.2). Collective; safe to call only for
    /// snapshots whose writes are durable. Default: unsupported no-op.
    fn retire(&mut self, _snap: SnapshotId) -> Result<()> {
        Ok(())
    }

    /// Flush and release resources at end of run (drains buffers, joins
    /// background threads, shuts down servers).
    fn finalize(&mut self) -> Result<()> {
        Ok(())
    }
}

/// The switchboard: holds loaded I/O modules and dispatches the three
/// high-level calls to whichever is active.
#[derive(Default)]
pub struct IoDispatch<'a> {
    modules: BTreeMap<String, Box<dyn IoService + 'a>>,
    active: Option<String>,
}

impl<'a> IoDispatch<'a> {
    /// Empty switchboard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load a module; the first loaded module becomes active.
    pub fn load_module(&mut self, module: Box<dyn IoService + 'a>) -> Result<()> {
        let name = module.service_name().to_string();
        if self.modules.contains_key(&name) {
            return Err(RocError::AlreadyExists(format!("I/O module '{name}'")));
        }
        if self.active.is_none() {
            self.active = Some(name.clone());
        }
        self.modules.insert(name, module);
        Ok(())
    }

    /// Select the active module by name.
    pub fn set_active(&mut self, name: &str) -> Result<()> {
        if !self.modules.contains_key(name) {
            return Err(RocError::NotFound(format!("I/O module '{name}'")));
        }
        self.active = Some(name.to_string());
        Ok(())
    }

    /// Name of the active module, if any.
    pub fn active(&self) -> Option<&str> {
        self.active.as_deref()
    }

    /// Names of loaded modules, sorted.
    pub fn loaded(&self) -> Vec<&str> {
        self.modules.keys().map(|s| s.as_str()).collect()
    }

    fn active_mut(&mut self) -> Result<&mut (dyn IoService + 'a)> {
        let name = self
            .active
            .clone()
            .ok_or_else(|| RocError::InvalidState("no I/O module loaded".into()))?;
        self.modules
            .get_mut(&name)
            .map(|m| m.as_mut())
            .ok_or_else(|| RocError::NotFound(format!("active I/O module '{name}'")))
    }

    /// Dispatch `write_attribute` to the active module.
    pub fn write_attribute(
        &mut self,
        windows: &Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()> {
        self.active_mut()?.write_attribute(windows, sel, snap)
    }

    /// Dispatch `read_attribute` to the active module.
    pub fn read_attribute(
        &mut self,
        windows: &mut Windows,
        sel: &AttrSelector,
        snap: SnapshotId,
    ) -> Result<()> {
        self.active_mut()?.read_attribute(windows, sel, snap)
    }

    /// Dispatch `sync` to the active module.
    pub fn sync(&mut self) -> Result<()> {
        self.active_mut()?.sync()
    }

    /// Dispatch `retire` to the active module.
    pub fn retire(&mut self, snap: SnapshotId) -> Result<()> {
        self.active_mut()?.retire(snap)
    }

    /// Finalize every loaded module (end of run).
    pub fn finalize_all(&mut self) -> Result<()> {
        for m in self.modules.values_mut() {
            m.finalize()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct MockIo {
        name: &'static str,
        log: Rc<RefCell<Vec<String>>>,
    }

    impl IoService for MockIo {
        fn service_name(&self) -> &'static str {
            self.name
        }
        fn write_attribute(
            &mut self,
            _w: &Windows,
            sel: &AttrSelector,
            snap: SnapshotId,
        ) -> Result<()> {
            self.log.borrow_mut().push(format!("{}:write:{sel}:{snap}", self.name));
            Ok(())
        }
        fn read_attribute(
            &mut self,
            _w: &mut Windows,
            sel: &AttrSelector,
            _snap: SnapshotId,
        ) -> Result<()> {
            self.log.borrow_mut().push(format!("{}:read:{sel}", self.name));
            Ok(())
        }
        fn sync(&mut self) -> Result<()> {
            self.log.borrow_mut().push(format!("{}:sync", self.name));
            Ok(())
        }
        fn finalize(&mut self) -> Result<()> {
            self.log.borrow_mut().push(format!("{}:finalize", self.name));
            Ok(())
        }
    }

    fn mock(name: &'static str, log: &Rc<RefCell<Vec<String>>>) -> Box<MockIo> {
        Box::new(MockIo {
            name,
            log: Rc::clone(log),
        })
    }

    #[test]
    fn first_loaded_module_is_active() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut d = IoDispatch::new();
        d.load_module(mock("rocpanda", &log)).unwrap();
        d.load_module(mock("rochdf", &log)).unwrap();
        assert_eq!(d.active(), Some("rocpanda"));
        assert_eq!(d.loaded(), vec!["rochdf", "rocpanda"]);
    }

    #[test]
    fn dispatch_goes_to_active_module() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut d = IoDispatch::new();
        let mut ws = Windows::new();
        d.load_module(mock("rocpanda", &log)).unwrap();
        d.load_module(mock("rochdf", &log)).unwrap();
        let sel = AttrSelector::all("fluid");
        let snap = SnapshotId::new(0, 0);
        d.write_attribute(&ws, &sel, snap).unwrap();
        d.set_active("rochdf").unwrap();
        d.write_attribute(&ws, &sel, snap).unwrap();
        d.read_attribute(&mut ws, &sel, snap).unwrap();
        d.sync().unwrap();
        let log = log.borrow();
        assert!(log[0].starts_with("rocpanda:write"));
        assert!(log[1].starts_with("rochdf:write"));
        assert!(log[2].starts_with("rochdf:read"));
        assert_eq!(log[3], "rochdf:sync");
    }

    #[test]
    fn no_module_loaded_is_an_error() {
        let mut d = IoDispatch::new();
        let mut ws = Windows::new();
        assert!(matches!(d.sync(), Err(RocError::InvalidState(_))));
        assert!(d
            .read_attribute(&mut ws, &AttrSelector::all("w"), SnapshotId::new(0, 0))
            .is_err());
        assert!(d.set_active("ghost").is_err());
    }

    #[test]
    fn duplicate_module_rejected() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut d = IoDispatch::new();
        d.load_module(mock("rochdf", &log)).unwrap();
        assert!(matches!(
            d.load_module(mock("rochdf", &log)),
            Err(RocError::AlreadyExists(_))
        ));
    }

    #[test]
    fn finalize_all_touches_every_module() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut d = IoDispatch::new();
        d.load_module(mock("a", &log)).unwrap();
        d.load_module(mock("b", &log)).unwrap();
        d.finalize_all().unwrap();
        let log = log.borrow();
        assert!(log.contains(&"a:finalize".to_string()));
        assert!(log.contains(&"b:finalize".to_string()));
    }
}
