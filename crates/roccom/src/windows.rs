//! The per-process collection of windows (the Roccom data plane).

use std::collections::BTreeMap;

use rocio_core::{Result, RocError};

use crate::window::Window;

/// All windows registered on this process.
///
/// Separated from the function registry so registered functions and I/O
/// services can borrow the data plane mutably while being stored elsewhere.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Windows {
    map: BTreeMap<String, Window>,
}

impl Windows {
    /// Empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a new window. Errors if the name is taken.
    pub fn create_window(&mut self, name: &str) -> Result<&mut Window> {
        if self.map.contains_key(name) {
            return Err(RocError::AlreadyExists(format!("window '{name}'")));
        }
        Ok(self
            .map
            .entry(name.to_string())
            .or_insert_with(|| Window::new(name)))
    }

    /// Borrow a window.
    pub fn window(&self, name: &str) -> Result<&Window> {
        self.map
            .get(name)
            .ok_or_else(|| RocError::NotFound(format!("window '{name}'")))
    }

    /// Borrow a window mutably.
    pub fn window_mut(&mut self, name: &str) -> Result<&mut Window> {
        self.map
            .get_mut(name)
            .ok_or_else(|| RocError::NotFound(format!("window '{name}'")))
    }

    /// Names of all windows, sorted.
    pub fn window_names(&self) -> Vec<&str> {
        self.map.keys().map(|s| s.as_str()).collect()
    }

    /// Whether a window exists.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{AttrSpec, PaneMesh};
    use rocio_core::{BlockId, DType};

    #[test]
    fn create_and_lookup() {
        let mut ws = Windows::new();
        ws.create_window("fluid").unwrap();
        ws.create_window("solid").unwrap();
        assert!(ws.window("fluid").is_ok());
        assert!(ws.window("gas").is_err());
        assert_eq!(ws.window_names(), vec!["fluid", "solid"]);
        assert!(ws.contains("solid"));
    }

    #[test]
    fn duplicate_window_rejected() {
        let mut ws = Windows::new();
        ws.create_window("w").unwrap();
        assert!(matches!(
            ws.create_window("w"),
            Err(RocError::AlreadyExists(_))
        ));
    }

    #[test]
    fn windows_hold_independent_panes() {
        let mut ws = Windows::new();
        {
            let f = ws.create_window("fluid").unwrap();
            f.declare_attr(AttrSpec::element("p", DType::F64, 1)).unwrap();
            f.register_pane(
                BlockId(1),
                PaneMesh::Structured {
                    dims: [1, 1, 1],
                    origin: [0.0; 3],
                    spacing: [1.0; 3],
                },
            )
            .unwrap();
        }
        ws.create_window("solid").unwrap();
        assert_eq!(ws.window("fluid").unwrap().n_panes(), 1);
        assert_eq!(ws.window("solid").unwrap().n_panes(), 0);
    }
}
