//! Persistence of built frameworks into a [`pagestore::BlobStore`].
//!
//! The paper's implementation keeps all index structures in database
//! tables, whose rows share pages; this module plays that role. A framework
//! is stored as one manifest blob (configuration, node→meta maps, runtime
//! link table, image lengths), its meta documents' index images packed
//! into segments (`segments`) and one blob for the build report, each
//! behind the `FORMAT` word. Loading needs the sealed collection graph the
//! framework was built over — the store holds indexes, not documents,
//! exactly like the paper's setup where the XML data and the index tables
//! live side by side.

use crate::catalogue::{Catalogue, Catalogued};
use crate::config::FlixConfig;
use crate::framework::Flix;
use crate::meta::MetaDocument;
use crate::report::BuildReport;
use graphcore::NodeId;
use pagestore::BlobStore;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use xmlgraph::CollectionGraph;

/// The format word every blob of a framework begins with ("FLT6"): behind
/// it, `pagestore::codec` bytes whose `u32`-shaped arrays are each one byte
/// string, a count, lane widths and the lanes packed to the bits of their
/// largest values ([`graphcore::flat`]), and PPO meta documents numbered in
/// preorder, their index three arrays and a flat label table
/// ([`ppo::PpoIndex`]); a segment holds its images end to end behind one
/// word. An image is its index and nothing the index or the manifest
/// determines: its node map and anchor lists ([`Catalogued`]), HOPI's
/// anchor flags (the lists) and PPO's depths and parents (the subtree
/// sizes) are derived on load. Blobs under an older word ("FLT5" had a blob
/// an image and flat maps, "FLT4" stored the anchor lists and every local,
/// "FLT3" the node map and flags, "FLT2" four bytes an element, "FLT1" six
/// PPO arrays; before those, no word) would misparse as this one, so the
/// word is checked before anything is decoded and they fail typed. What
/// [`hopi::HopiIndex`] keeps behind its own layout word is narrower: the
/// *order* of its rows, which this word says nothing of.
const FORMAT: u32 = u32::from_le_bytes(*b"FLT6");
/// Bytes of [`FORMAT`] at the head of every blob.
const WORD: usize = 4;

/// `value` as a framework blob holds it: [`FORMAT`], then the codec's bytes
/// (a tuple is its fields in order and nothing else).
pub(crate) fn image<T: Serialize>(value: &T) -> Result<Vec<u8>, String> {
    pagestore::to_bytes(&(FORMAT, value)).map_err(|e| e.to_string())
}

/// The bytes behind `blob`'s format word, or why not: another word or none.
fn body(blob: &[u8]) -> Result<&[u8], String> {
    let [a, b, c, d, bytes @ ..] = blob else {
        return Err(format!("{} bytes hold no format word", blob.len()));
    };
    let found = u32::from_le_bytes([*a, *b, *c, *d]);
    if found != FORMAT {
        return Err(format!(
            "image format {found:#010x}, this build reads {FORMAT:#010x}"
        ));
    }
    Ok(bytes)
}

/// Decodes a blob written by [`image`], or says why not: another format
/// word (or none), then whatever the codec finds.
fn decode<T: DeserializeOwned>(blob: &[u8]) -> Result<T, String> {
    pagestore::from_bytes(body(blob)?).map_err(|e| format!("does not decode: {e}"))
}

/// What a blob [`decode`] refused is reported as.
fn stale(what: std::fmt::Arguments<'_>, fault: String) -> String {
    format!("{what} is stale or corrupt ({fault}); rebuild and save the framework")
}

/// The stored form of a framework's [`Catalogue`] behind a three-field
/// header, and each image's length. `meta_of` is runs ([`runs`]), as are,
/// ascending by one, the locals of the meta documents not numbered in id
/// order (a PPO one whose preorder is not); any other local is its
/// element's rank by id in its meta document. The one on-disk framework
/// layout: [`load_flix`] reads every index eagerly, `DiskFlix` per lookup.
#[derive(Serialize, Deserialize)]
pub(crate) struct Manifest {
    config: FlixConfig,
    node_count: usize,
    meta_count: usize,
    #[serde(with = "graphcore::flat")]
    meta_of: Vec<(u32, u32)>,
    /// The meta documents not numbered in id order.
    #[serde(with = "graphcore::flat")]
    renumbered: Vec<u32>,
    /// The locals of the elements of the `renumbered` meta documents.
    #[serde(with = "graphcore::flat")]
    local_of: Vec<(u32, u32)>,
    #[serde(with = "graphcore::flat")]
    runtime_links: Vec<(NodeId, NodeId)>,
    /// The first meta document of each segment.
    #[serde(with = "graphcore::flat")]
    segments: Vec<u32>,
    #[serde(with = "graphcore::flat")]
    image_len: Vec<u32>,
}

/// `values` as runs `(start, value)`: the positions from `start` to the
/// next run's hold `value`, `value + step`, … — what [`expand`] reads back.
fn runs(values: &[u32], step: u32) -> Vec<(u32, u32)> {
    let starts_run = |&i: &usize| i == 0 || values[i] != values[i - 1].wrapping_add(step);
    let starts = (0..values.len()).filter(starts_run);
    starts.map(|i| (i as u32, values[i])).collect()
}

/// The `len` values `runs` hold ([`runs`]), or the first way they do not
/// cover `0..len` once; nothing past `len` is allocated. A run of locals
/// past `u32` wraps through `u32::MAX`, which [`Catalogue::metas`] refuses.
fn expand(runs: &[(u32, u32)], len: usize, step: u32, what: &str) -> Result<Vec<u32>, String> {
    let mut values = Vec::with_capacity(len);
    for (i, &(start, value)) in runs.iter().enumerate() {
        let (at, end) = (values.len(), runs.get(i + 1).map_or(len, |r| r.0 as usize));
        if start as usize != at || end.min(len) <= at {
            return Err(format!("{what} run {i} at {start}..{end}, not {at}"));
        }
        values.extend((0..(end.min(len) - at) as u32).map(|k| value.wrapping_add(step * k)));
    }
    match values.len() {
        covered if covered < len => Err(format!("{what} runs cover {covered} of {len}")),
        _ => Ok(values),
    }
}

/// The first meta document of each segment: images in id order share one
/// while it, word included, fits a page's chunk ([`pagestore::CHUNK`]); a
/// larger image is a segment of its own. It is stored under its first's id.
fn segments(image_len: &[u32]) -> Vec<u32> {
    let (mut firsts, mut used) = (Vec::new(), 0);
    for (mi, &len) in (0..).zip(image_len) {
        if firsts.is_empty() || used + len as usize > pagestore::CHUNK {
            firsts.push(mi);
            used = WORD;
        }
        used += len as usize;
    }
    firsts
}

impl Manifest {
    fn of(flix: &Flix, image_len: Vec<u32>) -> Self {
        let catalogue = flix.catalogue();
        let renumbered: Vec<u32> = (0..flix.meta_count() as u32)
            .filter(|&m| flix.meta(m).nodes.windows(2).any(|w| w[0] > w[1]))
            .collect();
        let stored = |v: &usize| renumbered.binary_search(&catalogue.meta_of[*v]).is_ok();
        let local_of: Vec<u32> = (0..catalogue.meta_of.len())
            .filter(stored)
            .map(|v| catalogue.local_of[v])
            .collect();
        Self {
            config: flix.config(),
            node_count: flix.collection().node_count(),
            meta_count: flix.meta_count(),
            meta_of: runs(&catalogue.meta_of, 0),
            local_of: runs(&local_of, 1),
            renumbered,
            runtime_links: catalogue.links().to_vec(),
            segments: segments(&image_len),
            image_len,
        }
    }

    /// The catalogue stored here, what it determines of each meta document
    /// ([`Catalogue::metas`]) and where its image lies, or the first way it
    /// would break a lookup: runs of `meta_of`, `local_of` or segments that
    /// do not cover what they map, node maps that are no partition, runtime
    /// links that do not ascend strictly, as the run index and the anchor
    /// lists need. `O(n)` and a sort of the anchors.
    fn catalogue(self) -> Result<(Catalogue, Vec<Catalogued>), String> {
        let (n, count, lens) = (self.node_count, self.meta_count, &self.image_len);
        if n > NodeId::MAX as usize || count > n.max(1) || lens.len() != count {
            let held = lens.len();
            return Err(format!("{count} meta documents, {held} images, {n} nodes"));
        }
        let meta_of = expand(&self.meta_of, n, 0, "meta_of")?;
        // Per meta document, the next rank by id, or `None` if renumbered.
        let mut ranks = vec![Some(0u32); count];
        for &m in &self.renumbered {
            let rank = ranks.get_mut(m as usize);
            *rank.ok_or_else(|| format!("meta document {m} of {count} is renumbered"))? = None;
        }
        let renumbered = |&&m: &&u32| ranks.get(m as usize) == Some(&None);
        let held = meta_of.iter().filter(renumbered).count();
        let mut held = expand(&self.local_of, held, 1, "local_of")?.into_iter();
        let local_of = (meta_of.iter())
            .map(|&meta| match ranks.get_mut(meta as usize) {
                Some(Some(rank)) => {
                    *rank += 1;
                    *rank - 1
                }
                // `expand` gave one local per such element.
                Some(None) => held.next().unwrap_or_default(),
                // Not a meta document: `Catalogue::metas` names it.
                None => 0,
            })
            .collect();
        let links = &self.runtime_links;
        if let Some(at) = links.windows(2).position(|w| w[0] >= w[1]) {
            let (a, b) = (links[at], links[at + 1]);
            return Err(format!("runtime link {b:?} follows {a:?}"));
        }
        let catalogue = Catalogue::new(meta_of, local_of, self.runtime_links);
        let mut metas = catalogue.metas(count)?;
        // Each meta document's segment is its run of the segments' firsts.
        let firsts: Vec<(u32, u32)> = self.segments.iter().map(|&s| (s, s)).collect();
        let segment_of = expand(&firsts, count, 0, "segment")?;
        let mut at = WORD;
        for (mi, parts) in metas.iter_mut().enumerate() {
            let (first, len) = (segment_of[mi] as usize == mi, lens[mi] as usize);
            at = if first { WORD } else { at };
            (parts.segment, parts.image) = (segment_of[mi], at..at.saturating_add(len));
            at = parts.image.end;
        }
        Ok((catalogue, metas))
    }
}

/// Reads the manifest of the framework saved under `name`: the
/// configuration, the catalogue and, by id, what [`load_meta`] completes
/// each image with and where it reads it.
///
/// # Errors
/// If there is none; as "stale or corrupt" in another format than this
/// build's, undecodable, or unsound ([`Manifest::catalogue`]).
pub(crate) fn load_manifest(
    store: &BlobStore,
    name: &str,
) -> Result<(FlixConfig, Catalogue, Vec<Catalogued>), String> {
    let blob = store
        .get(&format!("{name}/manifest"))
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no framework named {name:?} in store"))?;
    let refused = |fault| stale(format_args!("the manifest of {name:?}"), fault);
    let manifest: Manifest = decode(&blob).map_err(refused)?;
    let config = manifest.config;
    let (catalogue, metas) = manifest.catalogue().map_err(refused)?;
    Ok((config, catalogue, metas))
}

/// Reads meta document `id` of the framework saved under `name` — one get of
/// its segment, one page for a small image — and completes it with `parts`.
///
/// # Errors
/// If the blob is missing; and, each as "stale or corrupt": if the segment
/// is in another format than this build's or ends before the image, or the
/// image does not decode or complete into an index a lookup can trust.
pub(crate) fn load_meta(
    store: &BlobStore,
    name: &str,
    id: usize,
    parts: Catalogued,
) -> Result<MetaDocument, String> {
    decode_meta(&read_segment(store, name, id, parts.segment)?, id, parts)
}

/// Segment blob `segment`, checked to begin with [`FORMAT`]; a refusal
/// names meta document `id`.
fn read_segment(store: &BlobStore, name: &str, id: usize, segment: u32) -> Result<Vec<u8>, String> {
    let blob = store
        .get(&format!("{name}/meta-{segment}"))
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("missing blob for meta document {id}"))?;
    body(&blob).map_err(|fault| stale(format_args!("meta document {id}"), fault))?;
    Ok(blob)
}

/// Decodes meta document `id`'s image from its `segment` and completes it
/// with `parts`; a refusal is "stale or corrupt".
fn decode_meta(segment: &[u8], id: usize, parts: Catalogued) -> Result<MetaDocument, String> {
    let refused = |fault| stale(format_args!("meta document {id}"), fault);
    let len = segment.len();
    let image = (segment.get(parts.image.clone()))
        .ok_or_else(|| refused(format!("its image ends past its segment's {len} bytes")))?;
    let decoded = pagestore::from_bytes(image);
    let mut md: MetaDocument = decoded.map_err(|e| refused(format!("does not decode: {e}")))?;
    match md.complete(parts) {
        Some(fault) => Err(refused(fault)),
        None => Ok(md),
    }
}

/// Saves a built framework under `name`.
pub fn save_flix(flix: &Flix, store: &mut BlobStore, name: &str) -> Result<(), String> {
    let mut put = |blob: &str, bytes: &[u8]| {
        (store.put(&format!("{name}/{blob}"), bytes)).map_err(|e| e.to_string())
    };
    let images = (0..flix.meta_count() as u32)
        .map(|mi| pagestore::to_bytes(flix.meta(mi)).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let lens = images.iter().map(|image| u32::try_from(image.len()));
    let lens = lens.collect::<Result<_, _>>().map_err(|e| e.to_string())?;
    let manifest = Manifest::of(flix, lens);
    put("manifest", &image(&manifest)?)?;
    let firsts = &manifest.segments;
    for (k, &first) in firsts.iter().enumerate() {
        let end = firsts.get(k + 1).map_or(images.len(), |&s| s as usize);
        let mut segment = FORMAT.to_le_bytes().to_vec();
        segment.extend(images[first as usize..end].concat());
        put(&format!("meta-{first}"), &segment)?;
    }
    // The build report lives in its own blob: it carries wall-clock timings
    // that differ between otherwise identical builds, and keeping it out of
    // the manifest keeps persisted index images byte-comparable.
    put("report", &image(flix.build_report())?)
}

/// Loads a framework saved under `name`, reattaching it to `graph`.
///
/// # Errors
/// If blobs are missing or corrupt, or `graph` does not match the one the
/// framework was built over (node-count check).
pub fn load_flix(
    store: &BlobStore,
    name: &str,
    graph: Arc<CollectionGraph>,
) -> Result<Flix, String> {
    let (config, catalogue, metas) = load_manifest(store, name)?;
    let (built, graph_has) = (catalogue.meta_of.len(), graph.node_count());
    if built != graph_has {
        return Err(format!(
            "collection mismatch: framework built over {built} nodes, graph has {graph_has}"
        ));
    }
    let (mut loaded, mut segment) = (Vec::with_capacity(metas.len()), Vec::new());
    for (mi, parts) in metas.into_iter().enumerate() {
        // Images are in id order: each segment is read at its first.
        if parts.image.start == WORD {
            segment = read_segment(store, name, mi, parts.segment)?;
        }
        loaded.push(decode_meta(&segment, mi, parts)?);
    }
    // The report is a record of the build, not an index: no answer reads
    // it, so a store that lost the blob loads with a zeroed one. One that
    // is there goes through the format check like every other blob.
    let report = match store
        .get(&format!("{name}/report"))
        .map_err(|e| e.to_string())?
    {
        Some(blob) => decode(&blob)
            .map_err(|fault| stale(format_args!("the build report of {name:?}"), fault))?,
        None => BuildReport::empty(config),
    };
    Ok(Flix::from_raw_parts(
        graph, config, loaded, catalogue, report,
    ))
}

/// Mirrors of persisted structures for the stale- and corrupt-store tests:
/// the tables of an index are private to its crate, so a test reaches them
/// the way a damaged store does — through the codec, which writes a struct
/// as its fields in order and nothing else.
#[cfg(test)]
pub(crate) mod mirror {
    use super::*;
    use crate::meta::MetaIndex;
    use graphcore::{BitSet, TransitiveClosure};
    use std::collections::BTreeMap;

    #[derive(Serialize, Deserialize)]
    pub(crate) struct Table {
        #[serde(with = "graphcore::flat")]
        pub(crate) offsets: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        pub(crate) entries: Vec<(u32, u32)>,
    }

    /// A `HopiIndex` image: the layout word, the descendants pair, the
    /// label words and the build counters.
    #[derive(Serialize, Deserialize)]
    pub(crate) struct Hopi {
        layout: u32,
        pub(crate) l_out: Table,
        pub(crate) in_index: Table,
        #[serde(with = "graphcore::flat")]
        pub(crate) node_labels: Vec<u32>,
        stats: hopi::BuildStats,
    }

    /// Edits of a HOPI image's label words that set an anchor flag — bit
    /// 31, a link source's, or bit 30, a link target's — where an image
    /// holds bare labels: the flags are its anchor lists.
    pub(crate) fn hopi_flag_damage() -> [fn(&mut Hopi); 2] {
        [
            |hopi| hopi.node_labels[0] |= SOURCE,
            |hopi| *hopi.node_labels.last_mut().unwrap() |= TARGET,
        ]
    }

    const SOURCE: u32 = 1 << 31;
    const TARGET: u32 = 1 << 30;

    /// `hopi`'s label words flagged with `md`'s anchors, as the builds that
    /// stored the flags held them.
    fn flagged(mut hopi: Hopi, md: &MetaDocument) -> Hopi {
        for (flag, anchors) in [(SOURCE, &md.link_sources), (TARGET, &md.link_targets)] {
            for &a in anchors.iter() {
                hopi.node_labels[a as usize] |= flag;
            }
        }
        hopi
    }

    /// Depth and parent per rank of the preorder forest whose subtree sizes
    /// are `size`: a rank's parent is the nearest rank before it whose
    /// subtree holds it, found by walking up from the rank before — what
    /// the builds that stored them held.
    fn forest(size: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let (mut depth, mut parent) = (vec![0; size.len()], vec![u32::MAX; size.len()]);
        for r in 1..size.len() {
            let mut p = r as u32 - 1;
            while p != u32::MAX && p + size[p as usize] <= r as u32 {
                p = parent[p as usize];
            }
            if p != u32::MAX {
                (parent[r], depth[r]) = (p, depth[p as usize] + 1);
            }
        }
        (depth, parent)
    }

    type Rows = Vec<Vec<(u32, u32)>>;

    impl Table {
        fn rows(&self) -> Rows {
            let bounds = self.offsets.windows(2);
            bounds
                .map(|w| self.entries[w[0] as usize..w[1] as usize].to_vec())
                .collect()
        }

        fn from_rows(rows: &[Vec<(u32, u32)>]) -> Self {
            let mut offsets = vec![0];
            for row in rows {
                offsets.push(offsets.last().unwrap() + row.len() as u32);
            }
            Self {
                offsets,
                entries: rows.concat(),
            }
        }
    }

    /// `rows` turned around — entry `(w, d)` of row `v` becomes `(v, d)` of
    /// row `w` — each row ascending by `key` of its node.
    fn inverted(rows: &[Vec<(u32, u32)>], key: impl Fn(u32) -> u64) -> Rows {
        let mut inverted = vec![Vec::new(); rows.len()];
        for (v, row) in (0u32..).zip(rows) {
            for &(w, d) in row {
                inverted[w as usize].push((v, d));
            }
        }
        for row in &mut inverted {
            row.sort_unstable_by_key(|&(v, _)| key(v));
        }
        inverted
    }

    /// The four tables of `hopi` as a build from before the ancestors pair
    /// was derived stored them — `l_in`, `l_out`, `in_index`, `out_index` —
    /// with `out_index`'s rows ascending by `out_key` of their node.
    fn four_tables(hopi: &Hopi, out_key: impl Fn(u32) -> u64) -> [Rows; 4] {
        let (l_out, in_index) = (hopi.l_out.rows(), hopi.in_index.rows());
        let l_in = inverted(&in_index, u64::from);
        let out_index = inverted(&l_out, out_key);
        [l_in, l_out, in_index, out_index]
    }

    /// The `with` module of the count-prefixed mirrors below: an array is
    /// read as this build writes it and written as every build before
    /// byte-string arrays did, one element at a time behind an element
    /// count.
    mod counted {
        pub(super) use graphcore::flat::deserialize;

        pub(super) fn serialize<T: serde::Serialize, S: serde::Serializer>(
            array: &T,
            serializer: S,
        ) -> Result<S::Ok, S::Error> {
            array.serialize(serializer)
        }
    }

    /// The `with` module of the "FLT2"- and "FLT1"-era mirrors below: an
    /// array is read as this build writes it and written as the builds
    /// behind those words did, one byte string of its elements at four
    /// bytes each (a pair's two `u32`s back to back).
    mod fixed {
        pub(super) use graphcore::flat::deserialize;
        use graphcore::flat::Element;

        pub(super) fn serialize<E: Element, S: serde::Serializer>(
            array: &[E],
            serializer: S,
        ) -> Result<S::Ok, S::Error> {
            let lanes = |e: E| (0..E::LANES).flat_map(move |lane| e.lane(lane).to_le_bytes());
            let image: Vec<u8> = array.iter().flat_map(|&e| lanes(e)).collect();
            serializer.serialize_bytes(&image)
        }
    }

    /// The "FLT3" layout of every persisted structure — a meta document
    /// with its node map, a PPO index with its depths and parents — as
    /// module `$name`, each array read as this build writes it and written
    /// by the `with` module `$writer`: decoding an "FLT3" image
    /// ([`flt3_image`]) into such a mirror and encoding the mirror again is
    /// that image in an older build's array encoding.
    macro_rules! twin_layout {
        ($name:ident, $writer:ident) => {
            pub(crate) mod $name {
                use super::$writer as writer;
                use super::*;

                #[derive(Serialize, Deserialize)]
                pub(crate) struct Table {
                    #[serde(with = "writer")]
                    offsets: Vec<u32>,
                    #[serde(with = "writer")]
                    entries: Vec<(u32, u32)>,
                }

                impl From<&Rows> for Table {
                    fn from(rows: &Rows) -> Self {
                        let super::Table { offsets, entries } = super::Table::from_rows(rows);
                        Self { offsets, entries }
                    }
                }

                #[derive(Serialize, Deserialize)]
                pub(crate) struct Hopi {
                    layout: u32,
                    l_out: Table,
                    in_index: Table,
                    #[serde(with = "writer")]
                    node_labels: Vec<u32>,
                    stats: hopi::BuildStats,
                }

                #[derive(Serialize, Deserialize)]
                struct Forest {
                    #[serde(with = "writer")]
                    size: Vec<u32>,
                    #[serde(with = "writer")]
                    depth: Vec<u32>,
                    #[serde(with = "writer")]
                    parent: Vec<u32>,
                    #[serde(with = "writer")]
                    label_keys: Vec<u32>,
                    #[serde(with = "writer")]
                    label_offsets: Vec<u32>,
                    #[serde(with = "writer")]
                    label_ranks: Vec<u32>,
                }

                #[derive(Serialize, Deserialize)]
                struct Ppo {
                    index: Forest,
                    #[serde(with = "writer")]
                    removed: Vec<(u32, u32)>,
                }

                #[derive(Serialize, Deserialize)]
                struct Graph {
                    #[serde(with = "writer")]
                    fwd_off: Vec<u32>,
                    #[serde(with = "writer")]
                    fwd: Vec<u32>,
                    #[serde(with = "writer")]
                    rev_off: Vec<u32>,
                    #[serde(with = "writer")]
                    rev: Vec<u32>,
                }

                #[derive(Serialize, Deserialize)]
                struct Summary {
                    #[serde(with = "writer")]
                    class_of: Vec<u32>,
                    extents: Vec<Vec<u32>>,
                    #[serde(with = "writer")]
                    class_label: Vec<u32>,
                    graph: Graph,
                }

                #[derive(Serialize, Deserialize)]
                struct Apex {
                    graph: Graph,
                    #[serde(with = "writer")]
                    labels: Vec<u32>,
                    summary: Summary,
                    summary_closure: TransitiveClosure,
                    label_reach: Vec<BitSet>,
                    max_label: u32,
                }

                #[derive(Serialize, Deserialize)]
                enum Index {
                    Ppo(Ppo),
                    Hopi(Hopi),
                    Apex(Apex),
                }

                /// A [`MetaDocument`] of any strategy.
                #[derive(Serialize, Deserialize)]
                pub(crate) struct Meta {
                    #[serde(with = "writer")]
                    nodes: Vec<u32>,
                    index: Index,
                    #[serde(with = "writer")]
                    link_sources: Vec<u32>,
                    #[serde(with = "writer")]
                    link_targets: Vec<u32>,
                }

                /// A [`Manifest`].
                #[derive(Serialize, Deserialize)]
                pub(crate) struct Manifest {
                    config: FlixConfig,
                    node_count: usize,
                    meta_count: usize,
                    #[serde(with = "writer")]
                    meta_of: Vec<u32>,
                    #[serde(with = "writer")]
                    local_of: Vec<u32>,
                    #[serde(with = "writer")]
                    runtime_links: Vec<(u32, u32)>,
                }
            }
        };
    }

    twin_layout!(counted_twin, counted);
    twin_layout!(fixed_twin, fixed);

    /// A meta document as the builds before byte-string arrays wrote it.
    pub(crate) type CountedMeta = counted_twin::Meta;
    /// A manifest as the builds before byte-string arrays wrote it.
    pub(crate) type CountedManifest = counted_twin::Manifest;
    /// A meta document as the "FLT2" build wrote it.
    pub(crate) type Flt2Meta = fixed_twin::Meta;
    /// A manifest as the "FLT2" build wrote it.
    pub(crate) type Flt2Manifest = fixed_twin::Manifest;

    /// The stored manifest `blob` after `damage` edited it.
    pub(crate) fn damaged_manifest(blob: &[u8], damage: impl FnOnce(&mut Manifest)) -> Vec<u8> {
        let mut manifest: Manifest = decode(blob).unwrap();
        damage(&mut manifest);
        image(&manifest).unwrap()
    }

    /// Makes `bytes` — a blob as [`image`] writes one, or as an older build
    /// did — meta document `id`'s image in the framework saved under
    /// `name`: its segment is split so that the image is a segment of its
    /// own, whose blob is `bytes`, and the manifest records the split and
    /// the image's length behind the word. A load of `id` then checks
    /// `bytes`' own word, as when each meta document had a blob; the other
    /// images of the segment are spliced unchanged into the ones around it.
    pub(crate) fn put_image(store: &mut BlobStore, name: &str, id: usize, bytes: &[u8]) {
        let key = format!("{name}/manifest");
        let mut manifest: Manifest = decode(&store.get(&key).unwrap().unwrap()).unwrap();
        let (segments, count) = (&mut manifest.segments, manifest.meta_count);
        let k = segments.partition_point(|&s| s as usize <= id) - 1;
        let first = segments[k] as usize;
        let end = segments.get(k + 1).map_or(count, |&s| s as usize);
        let old = store.get(&format!("{name}/meta-{first}")).unwrap().unwrap();
        let mut at = WORD;
        let images: Vec<&[u8]> = (manifest.image_len[first..end].iter())
            .map(|&len| {
                at += len as usize;
                &old[at - len as usize..at]
            })
            .collect();
        for ids in [first..id, id + 1..end]
            .into_iter()
            .filter(|ids| !ids.is_empty())
        {
            let images = images[ids.start - first..ids.end - first].concat();
            let segment = [&FORMAT.to_le_bytes()[..], &images].concat();
            store
                .put(&format!("{name}/meta-{}", ids.start), &segment)
                .unwrap();
        }
        store.put(&format!("{name}/meta-{id}"), bytes).unwrap();
        segments.extend(
            [id as u32, id as u32 + 1]
                .iter()
                .filter(|&&s| (s as usize) < count),
        );
        segments.sort_unstable();
        segments.dedup();
        manifest.image_len[id] = bytes.len().saturating_sub(WORD) as u32;
        store.put(&key, &image(&manifest).unwrap()).unwrap();
    }

    /// The image of `md` as the "FLT5" build saved it, a blob of its own:
    /// that word, then the bytes this build's segments hold of it.
    pub(crate) fn flt5_image(md: &MetaDocument) -> Vec<u8> {
        [b"FLT5".to_vec(), pagestore::to_bytes(md).unwrap()].concat()
    }

    /// The manifest of `flix` as the "FLT5" build saved it: `meta_of` flat,
    /// the locals of the renumbered meta documents flat, and no segments.
    pub(crate) fn flt5_manifest(flix: &Flix) -> Vec<u8> {
        #[derive(Serialize)]
        struct Flt5Manifest {
            config: FlixConfig,
            node_count: usize,
            meta_count: usize,
            #[serde(with = "graphcore::flat")]
            meta_of: Vec<u32>,
            #[serde(with = "graphcore::flat")]
            renumbered: Vec<u32>,
            #[serde(with = "graphcore::flat")]
            local_of: Vec<u32>,
            #[serde(with = "graphcore::flat")]
            runtime_links: Vec<(NodeId, NodeId)>,
        }
        let catalogue = flix.catalogue();
        let renumbered: Vec<u32> = (0..flix.meta_count() as u32)
            .filter(|&m| flix.meta(m).nodes.windows(2).any(|w| w[0] > w[1]))
            .collect();
        let stored = |v: &usize| renumbered.binary_search(&catalogue.meta_of[*v]).is_ok();
        let manifest = Flt5Manifest {
            config: flix.config(),
            node_count: flix.collection().node_count(),
            meta_count: flix.meta_count(),
            meta_of: catalogue.meta_of.clone(),
            local_of: (0..catalogue.meta_of.len())
                .filter(stored)
                .map(|v| catalogue.local_of[v])
                .collect(),
            renumbered,
            runtime_links: catalogue.links().to_vec(),
        };
        [b"FLT5".to_vec(), pagestore::to_bytes(&manifest).unwrap()].concat()
    }

    /// `blob` — an "FLT3" image ([`flt3_image`]) read as a [`CountedMeta`],
    /// or an "FLT4" manifest ([`flt4_manifest`]), read as a
    /// [`CountedManifest`] — in the
    /// encoding of the builds before arrays were byte strings: every array
    /// behind an element count, and no format word.
    pub(crate) fn count_prefixed<M: Serialize + DeserializeOwned>(blob: &[u8]) -> Vec<u8> {
        pagestore::to_bytes(&body::<M>(blob)).unwrap()
    }

    /// `blob` — an "FLT3" image read as an [`Flt2Meta`], an "FLT4" manifest
    /// read as an [`Flt2Manifest`], or this build's [`BuildReport`] —
    /// as the "FLT2" build saved it: that word, then every array at four
    /// bytes an element.
    pub(crate) fn flt2<M: Serialize + DeserializeOwned>(blob: &[u8]) -> Vec<u8> {
        let old = pagestore::to_bytes(&body::<M>(blob)).unwrap();
        [b"FLT2".to_vec(), old].concat()
    }

    /// The codec bytes behind `blob`'s format word, whichever it is, read
    /// as `M`.
    fn body<M: DeserializeOwned>(blob: &[u8]) -> M {
        pagestore::from_bytes(&blob[4..]).unwrap()
    }

    /// `HopiIndex` as builds before the flat label tables persisted it:
    /// one length-prefixed `Vec` per row.
    #[derive(Serialize)]
    struct OldHopi {
        l_in: Vec<Vec<(u32, u32)>>,
        l_out: Vec<Vec<(u32, u32)>>,
        in_index: Vec<Vec<(u32, u32)>>,
        out_index: Vec<Vec<(u32, u32)>>,
        node_labels: Vec<u32>,
        stats: hopi::BuildStats,
    }

    /// A meta document's node map as an "FLT3" image holds it.
    #[derive(Serialize)]
    struct NodeMap {
        #[serde(with = "graphcore::flat")]
        nodes: Vec<u32>,
    }

    /// A meta document's anchor lists as the images before "FLT5" held
    /// them, behind the index.
    #[derive(Serialize)]
    struct Anchors {
        #[serde(with = "graphcore::flat")]
        sources: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        targets: Vec<u32>,
    }

    /// The bytes of `md`'s anchor lists in such an image.
    fn anchor_bytes(md: &MetaDocument) -> Vec<u8> {
        let anchors = Anchors {
            sources: md.link_sources.to_vec(),
            targets: md.link_targets.to_vec(),
        };
        pagestore::to_bytes(&anchors).unwrap()
    }

    /// The image of `md` as the "FLT4" build saved it: that word, the
    /// index, then the anchor lists.
    pub(crate) fn flt4_image(md: &MetaDocument) -> Vec<u8> {
        [b"FLT4", &image(md).unwrap()[4..], &anchor_bytes(md)].concat()
    }

    /// The manifest of `flix` as the "FLT4" build saved it — every local
    /// stored — under the format word `word`: the "FLT3" build saved the
    /// same fields.
    pub(crate) fn flt4_manifest(flix: &Flix, word: &[u8; 4]) -> Vec<u8> {
        #[derive(Serialize)]
        struct Flt4Manifest {
            config: FlixConfig,
            node_count: usize,
            meta_count: usize,
            #[serde(with = "graphcore::flat")]
            meta_of: Vec<u32>,
            #[serde(with = "graphcore::flat")]
            local_of: Vec<u32>,
            #[serde(with = "graphcore::flat")]
            runtime_links: Vec<(NodeId, NodeId)>,
        }
        let catalogue = flix.catalogue();
        let manifest = Flt4Manifest {
            config: flix.config(),
            node_count: flix.collection().node_count(),
            meta_count: flix.meta_count(),
            meta_of: catalogue.meta_of.clone(),
            local_of: catalogue.local_of.clone(),
            runtime_links: catalogue.links().to_vec(),
        };
        [&word[..], &pagestore::to_bytes(&manifest).unwrap()].concat()
    }

    /// The stored image of `md` with its index's bytes replaced by
    /// `reencode`'s: a meta document's image is the format word, the `u32`
    /// variant of its index and the index, end to end. Everything around
    /// the index stays as this build writes it, so what refuses the result
    /// is a check on the index.
    fn respliced<M: DeserializeOwned>(
        md: &MetaDocument,
        reencode: impl FnOnce(M) -> Vec<u8>,
    ) -> Vec<u8> {
        let inner = match &md.index {
            MetaIndex::Hopi(index) => pagestore::to_bytes(index),
            MetaIndex::Ppo(index) => pagestore::to_bytes(index),
            MetaIndex::Apex(index) => pagestore::to_bytes(index),
        }
        .unwrap();
        let whole = image(md).unwrap();
        let (start, end) = (4 + 4, 4 + 4 + inner.len());
        assert!(
            whole[start..end] == inner,
            "the index is not where expected"
        );
        let index = reencode(pagestore::from_bytes(&inner).unwrap());
        [&whole[..start], &index, &whole[end..]].concat()
    }

    /// A `PpoIndex` image: the subtree sizes and the label table, then the
    /// removed edges.
    #[derive(Serialize, Deserialize)]
    pub(crate) struct Ppo {
        #[serde(with = "graphcore::flat")]
        pub(crate) size: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        pub(crate) label_keys: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        pub(crate) label_offsets: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        pub(crate) label_ranks: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        pub(crate) removed: Vec<(u32, u32)>,
    }

    /// A `PpoIndex` as "FLT3" stored it: the depths and parents behind the
    /// subtree sizes.
    #[derive(Serialize)]
    struct Flt3Ppo {
        #[serde(with = "graphcore::flat")]
        size: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        depth: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        parent: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        label_keys: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        label_offsets: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        label_ranks: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        removed: Vec<(u32, u32)>,
    }

    /// The image of `md` as the "FLT3" build saved it: that word, the node
    /// map, then the index — a PPO one with its depths and parents, a HOPI
    /// one with its anchor flags in its label words — and the anchor lists.
    pub(crate) fn flt3_image(md: &MetaDocument) -> Vec<u8> {
        let new = match &md.index {
            MetaIndex::Hopi(_) => respliced(md, |hopi: Hopi| {
                pagestore::to_bytes(&flagged(hopi, md)).unwrap()
            }),
            MetaIndex::Ppo(_) => respliced(md, |ppo: Ppo| {
                let (depth, parent) = forest(&ppo.size);
                let old = Flt3Ppo {
                    size: ppo.size,
                    depth,
                    parent,
                    label_keys: ppo.label_keys,
                    label_offsets: ppo.label_offsets,
                    label_ranks: ppo.label_ranks,
                    removed: ppo.removed,
                };
                pagestore::to_bytes(&old).unwrap()
            }),
            MetaIndex::Apex(_) => image(md).unwrap(),
        };
        let nodes = NodeMap {
            nodes: md.nodes.to_vec(),
        };
        let nodes = pagestore::to_bytes(&nodes).unwrap();
        [b"FLT3", &nodes[..], &new[4..], &anchor_bytes(md)].concat()
    }

    /// The image of `md` after `damage` edited its index, read as `M`: the
    /// mirror of its strategy's index ([`Hopi`], [`Ppo`] or [`Apex`]).
    pub(crate) fn damaged_image<M: Serialize + DeserializeOwned>(
        md: &MetaDocument,
        damage: impl FnOnce(&mut M),
    ) -> Vec<u8> {
        respliced(md, |mut index: M| {
            damage(&mut index);
            pagestore::to_bytes(&index).unwrap()
        })
    }

    /// An edit of a stored PPO index, and what its refusal names.
    pub(crate) type PpoDamage = (fn(&mut Ppo), &'static str);

    /// Edits of a PPO image that would send a lookup out of bounds or leave
    /// its depths and parents underivable.
    pub(crate) fn ppo_damage() -> [PpoDamage; 7] {
        [
            (
                |p| {
                    // A rank whose parent's subtree ends before the index
                    // does, grown one past that end.
                    let (n, (_, parent)) = (p.size.len() as u32, forest(&p.size));
                    let end = |r: u32| r + p.size[r as usize];
                    let (r, up) = (0..n)
                        .find_map(|r| {
                            let q = parent[r as usize];
                            (q != u32::MAX && end(q) < n).then(|| (r, end(q)))
                        })
                        .unwrap();
                    p.size[r as usize] = up + 1 - r;
                },
                "does not nest in its parent",
            ),
            (
                |p| {
                    let off = &mut p.label_offsets;
                    let at = off.windows(2).position(|w| w[0] < w[1]).unwrap();
                    off.swap(at, at + 1);
                },
                "label lists: first offset is",
            ),
            (|p| p.label_keys.swap(0, 1), "keys are not ascending"),
            (
                |p| p.label_ranks[0] = p.size.len() as u32,
                "label lists: entry 0 names node",
            ),
            (|p| *p.size.last_mut().unwrap() = 2, "ends past"),
            (|p| *p.size.last_mut().unwrap() = 0, "subtree is empty"),
            (
                |p| p.removed.push((0, p.size.len() as u32)),
                "names a rank past",
            ),
        ]
    }

    /// A `Digraph` image: its four CSR arrays.
    #[derive(Serialize, Deserialize)]
    pub(crate) struct Graph {
        #[serde(with = "graphcore::flat")]
        fwd_off: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        fwd: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        rev_off: Vec<u32>,
        #[serde(with = "graphcore::flat")]
        rev: Vec<u32>,
    }

    /// A `StructuralSummary` image.
    #[derive(Serialize, Deserialize)]
    pub(crate) struct Summary {
        #[serde(with = "graphcore::flat")]
        pub(crate) class_of: Vec<u32>,
        extents: Vec<Vec<u32>>,
        #[serde(with = "graphcore::flat")]
        class_label: Vec<u32>,
        graph: Graph,
    }

    /// An `ApexIndex` image: the element graph and labels, the summary, its
    /// closure and the per-class label sets.
    #[derive(Serialize, Deserialize)]
    pub(crate) struct Apex {
        graph: Graph,
        #[serde(with = "graphcore::flat")]
        pub(crate) labels: Vec<u32>,
        pub(crate) summary: Summary,
        summary_closure: TransitiveClosure,
        pub(crate) label_reach: Vec<BitSet>,
        max_label: u32,
    }

    /// An edit of a stored APEX index, and what its refusal names.
    pub(crate) type ApexDamage = (fn(&mut Apex), &'static str);

    /// Edits of an APEX image that would send a lookup out of bounds.
    pub(crate) fn apex_damage() -> [ApexDamage; 4] {
        [
            (|a| a.summary.class_of.truncate(1), " 1 class ids"),
            (|a| a.labels.truncate(1), " 1 labels"),
            (|a| a.label_reach.clear(), " 0 label sets"),
            (|a| a.summary.class_of[0] = 999, "in class 999"),
        ]
    }

    /// `PpoIndex` as builds before preorder numbering persisted it, by
    /// local: six arrays, then each label's `(pre, local)` pairs.
    #[derive(Serialize)]
    struct SixArrayForest {
        #[serde(with = "fixed")]
        pre: Vec<u32>,
        #[serde(with = "fixed")]
        post: Vec<u32>,
        #[serde(with = "fixed")]
        depth: Vec<u32>,
        #[serde(with = "fixed")]
        parent: Vec<u32>,
        #[serde(with = "fixed")]
        size: Vec<u32>,
        #[serde(with = "fixed")]
        pre_to_node: Vec<u32>,
        by_label: BTreeMap<u32, Vec<(u32, u32)>>,
    }

    #[derive(Serialize)]
    struct SixArrayPpo {
        index: SixArrayForest,
        #[serde(with = "fixed")]
        removed: Vec<(u32, u32)>,
    }

    /// `MetaIndex` with its first variant, `Ppo`, only.
    #[derive(Serialize)]
    enum SixArrayIndex {
        Ppo(SixArrayPpo),
    }

    #[derive(Serialize)]
    struct SixArrayMeta {
        #[serde(with = "fixed")]
        nodes: Vec<u32>,
        index: SixArrayIndex,
        #[serde(with = "fixed")]
        link_sources: Vec<u32>,
        #[serde(with = "fixed")]
        link_targets: Vec<u32>,
    }

    /// The image of PPO-backed `md` as the build before preorder numbering
    /// saved it, behind the format word "FLT1": locals ascending with the
    /// elements, the index as six arrays by local and a per-label map, the
    /// removed edges and the link targets by local, the link sources in
    /// preorder-rank order.
    pub(crate) fn six_array_image(md: &MetaDocument) -> Vec<u8> {
        let MetaIndex::Ppo(index) = &md.index else {
            panic!("not a PPO meta document");
        };
        let ppo: Ppo = pagestore::from_bytes(&pagestore::to_bytes(index).unwrap()).unwrap();
        let (depth, parent) = forest(&ppo.size);
        let mut nodes = md.nodes.to_vec();
        nodes.sort_unstable();
        // The local each rank had when locals ascended with the elements.
        let old: Vec<u32> = (md.nodes.iter())
            .map(|v| nodes.binary_search(v).unwrap() as u32)
            .collect();
        let n = nodes.len();
        let mut forest = SixArrayForest {
            pre: vec![0; n],
            post: vec![0; n],
            depth: vec![0; n],
            parent: vec![u32::MAX; n],
            size: vec![0; n],
            pre_to_node: old.clone(),
            by_label: BTreeMap::new(),
        };
        for (r, &u) in (0..).zip(&old) {
            let (u, size, depth) = (u as usize, ppo.size[r as usize], depth[r as usize]);
            forest.pre[u] = r;
            forest.post[u] = r + size - 1 - depth;
            forest.depth[u] = depth;
            forest.size[u] = size;
            if let Some(&p) = old.get(parent[r as usize] as usize) {
                forest.parent[u] = p;
            }
        }
        for (k, &label) in ppo.label_keys.iter().enumerate() {
            let (lo, hi) = (ppo.label_offsets[k], ppo.label_offsets[k + 1]);
            let ranks = &ppo.label_ranks[lo as usize..hi as usize];
            let pairs = ranks.iter().map(|&r| (r, old[r as usize])).collect();
            forest.by_label.insert(label, pairs);
        }
        let by_old = |ranks: &[u32]| ranks.iter().map(|&r| old[r as usize]).collect::<Vec<_>>();
        let mut removed: Vec<(u32, u32)> = (ppo.removed.iter())
            .map(|&(u, v)| (old[u as usize], old[v as usize]))
            .collect();
        removed.sort_unstable();
        let mut link_targets = by_old(&md.link_targets);
        link_targets.sort_unstable();
        let meta = SixArrayMeta {
            nodes,
            index: SixArrayIndex::Ppo(SixArrayPpo {
                index: forest,
                removed,
            }),
            link_sources: by_old(&md.link_sources),
            link_targets,
        };
        [b"FLT1".to_vec(), pagestore::to_bytes(&meta).unwrap()].concat()
    }

    /// The image of HOPI-backed `md` with its index's arrays at four bytes
    /// an element, as "FLT2" wrote them: what the images of older layouts
    /// below are measured against.
    pub(crate) fn fixed_width_index_image(md: &MetaDocument) -> Vec<u8> {
        respliced(md, |hopi: fixed_twin::Hopi| {
            pagestore::to_bytes(&hopi).unwrap()
        })
    }

    /// `HopiIndex` as builds before the row order persisted it: no layout
    /// word, four tables, every inverted row ascending by node id, no
    /// anchor flags in the label words, every array behind an element count.
    #[derive(Serialize)]
    struct IdOrderedHopi {
        l_in: counted_twin::Table,
        l_out: counted_twin::Table,
        in_index: counted_twin::Table,
        out_index: counted_twin::Table,
        node_labels: Vec<u32>,
        stats: hopi::BuildStats,
    }

    /// The image of HOPI-backed `md` with its index as such a build
    /// persisted it.
    pub(crate) fn id_ordered_image(md: &MetaDocument) -> Vec<u8> {
        respliced(md, |hopi: Hopi| {
            let [l_in, l_out, mut in_index, out_index] = four_tables(&hopi, u64::from);
            in_index.iter_mut().for_each(|row| row.sort_unstable());
            let old = IdOrderedHopi {
                l_in: (&l_in).into(),
                in_index: (&in_index).into(),
                l_out: (&l_out).into(),
                out_index: (&out_index).into(),
                node_labels: hopi
                    .node_labels
                    .iter()
                    .map(|w| w & ((1 << 30) - 1))
                    .collect(),
                stats: hopi.stats,
            };
            pagestore::to_bytes(&old).unwrap()
        })
    }

    /// The image of HOPI-backed `md` with its index in the old
    /// row-per-`Vec` layout.
    pub(crate) fn old_layout_image(md: &MetaDocument) -> Vec<u8> {
        respliced(md, |hopi: Hopi| {
            let [l_in, l_out, in_index, out_index] = four_tables(&hopi, u64::from);
            let old = OldHopi {
                l_in,
                l_out,
                in_index,
                out_index,
                node_labels: hopi.node_labels,
                stats: hopi.stats,
            };
            pagestore::to_bytes(&old).unwrap()
        })
    }

    /// The image of HOPI-backed `md` as a build whose inverted rows were
    /// not ordered by distance persisted it: layout word "ROW3", the same
    /// arrays, each `in_index` row ascending by (not a link source, label,
    /// id) — a permutation of every row behind this build's bare labels,
    /// so the image is as long as this build's.
    pub(crate) fn row3_image(md: &MetaDocument) -> Vec<u8> {
        respliced(md, |mut hopi: Hopi| {
            let labels = &hopi.node_labels;
            let row_key = |v: u32| {
                let not_source = md.link_sources.binary_search(&v).is_err();
                u64::from(not_source) << 62 | u64::from(labels[v as usize]) << 32 | u64::from(v)
            };
            let mut rows = hopi.in_index.rows();
            for row in &mut rows {
                row.sort_unstable_by_key(|&(v, _)| row_key(v));
            }
            hopi.in_index = Table::from_rows(&rows);
            hopi.layout = u32::from_le_bytes(*b"ROW3");
            pagestore::to_bytes(&hopi).unwrap()
        })
    }

    /// `HopiIndex` as the build before the ancestors pair was derived
    /// persisted it: layout word "ROW2", all four tables — the inverted
    /// ones in row order, anchors first, then by label, then by id — and
    /// every array a byte string of four-byte elements.
    #[derive(Serialize)]
    struct FourTableHopi {
        layout: u32,
        l_in: fixed_twin::Table,
        l_out: fixed_twin::Table,
        in_index: fixed_twin::Table,
        out_index: fixed_twin::Table,
        #[serde(with = "fixed")]
        node_labels: Vec<u32>,
        stats: hopi::BuildStats,
    }

    /// The image of HOPI-backed `md` with its index as such a build
    /// persisted it.
    pub(crate) fn four_table_image(md: &MetaDocument) -> Vec<u8> {
        respliced(md, |hopi: Hopi| {
            let hopi = flagged(hopi, md);
            let word = |v: u32| hopi.node_labels[v as usize];
            let row_key = |v: u32| {
                let (not_target, label) = (word(v) & TARGET == 0, word(v) & (TARGET - 1));
                u64::from(not_target) << 62 | u64::from(label) << 32 | u64::from(v)
            };
            let [l_in, l_out, in_index, out_index] = four_tables(&hopi, row_key);
            let old = FourTableHopi {
                layout: u32::from_le_bytes(*b"ROW2"),
                l_in: (&l_in).into(),
                l_out: (&l_out).into(),
                in_index: (&in_index).into(),
                out_index: (&out_index).into(),
                node_labels: hopi.node_labels,
                stats: hopi.stats,
            };
            pagestore::to_bytes(&old).unwrap()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pee::QueryOptions;
    use pagestore::{BufferPool, MemDisk};
    use xmlgraph::{Collection, Document, LinkTarget};

    fn sample() -> Arc<CollectionGraph> {
        let mut c = Collection::new();
        let a = c.tags.intern("a");
        let b = c.tags.intern("b");
        let mut d0 = Document::new("d0.xml");
        let r = d0.add_element(a, None);
        let k = d0.add_element(b, Some(r));
        d0.add_link(
            k,
            LinkTarget {
                document: Some("d1.xml".into()),
                fragment: None,
            },
        );
        let mut d1 = Document::new("d1.xml");
        let r1 = d1.add_element(b, None);
        d1.add_element(b, Some(r1));
        c.add_document(d0).unwrap();
        c.add_document(d1).unwrap();
        Arc::new(c.seal())
    }

    fn store() -> BlobStore {
        BlobStore::new(Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64)))
    }

    #[test]
    fn save_load_round_trip_answers_identically() {
        let cg = sample();
        let b = cg.collection.tags.get("b").unwrap();
        for config in [
            FlixConfig::Naive,
            FlixConfig::MaximalPpo,
            FlixConfig::UnconnectedHopi { partition_size: 3 },
            FlixConfig::Monolithic(crate::config::StrategyKind::Apex),
        ] {
            let flix = Flix::build(cg.clone(), config);
            let want = flix.find_descendants(0, b, &QueryOptions::default());
            let mut st = store();
            save_flix(&flix, &mut st, "fw").unwrap();
            let loaded = load_flix(&st, "fw", cg.clone()).unwrap();
            assert_eq!(loaded.config(), config);
            let got = loaded.find_descendants(0, b, &QueryOptions::default());
            assert_eq!(want, got, "config {config}");
        }
    }

    #[test]
    fn build_report_survives_save_load() {
        let cg = sample();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        let mut st = store();
        save_flix(&flix, &mut st, "fw").unwrap();
        let loaded = load_flix(&st, "fw", cg).unwrap();
        assert_eq!(loaded.build_report(), flix.build_report());
    }

    /// A lost report costs the report; one in another format than this
    /// build's is a stale store like any other blob.
    #[test]
    fn store_without_report_blob_still_loads() {
        let cg = sample();
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        let mut st = store();
        save_flix(&flix, &mut st, "fw").unwrap();
        let wordless = pagestore::to_bytes(flix.build_report()).unwrap();
        st.put("fw/report", &wordless).unwrap();
        let err = load_flix(&st, "fw", cg.clone()).unwrap_err();
        assert!(err.contains("build report"), "{err}");
        assert!(err.contains("stale or corrupt (image format"), "{err}");
        assert!(st.remove("fw/report"), "report blob should exist");
        let loaded = load_flix(&st, "fw", cg).unwrap();
        assert_eq!(
            loaded.build_report(),
            &BuildReport::empty(FlixConfig::Naive)
        );
    }

    /// A store saved before arrays were byte strings holds every array
    /// behind an element count and no format word; read as this build's
    /// images an element count would pass for a byte length. The word is
    /// checked first, so each fails as stale, by name, whatever the bytes
    /// behind it would have decoded to.
    #[test]
    fn count_prefixed_images_are_rejected_on_load() {
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        for config in [
            FlixConfig::MaximalPpo,
            FlixConfig::UnconnectedHopi { partition_size: 40 },
            FlixConfig::Monolithic(crate::config::StrategyKind::Apex),
        ] {
            let flix = Flix::build(cg.clone(), config);
            let mut st = store();
            save_flix(&flix, &mut st, "fw").unwrap();
            let manifest = mirror::flt4_manifest(&flix, b"FLT4");
            let refused = |st: &BlobStore| {
                let err = load_flix(st, "fw", cg.clone()).unwrap_err();
                assert!(
                    err.contains("is stale or corrupt (image format"),
                    "{config}: {err}"
                );
                err
            };
            for victim in 0..flix.meta_count() {
                let md = flix.meta(victim as u32);
                let old = mirror::count_prefixed::<mirror::CountedMeta>(&mirror::flt3_image(md));
                mirror::put_image(&mut st, "fw", victim, &old);
                let err = refused(&st);
                mirror::put_image(&mut st, "fw", victim, &image(md).unwrap());
                assert!(
                    err.starts_with(&format!("meta document {victim} is")),
                    "{err}"
                );
            }
            let new = st.get("fw/manifest").unwrap().unwrap();
            let old = mirror::count_prefixed::<mirror::CountedManifest>(&manifest);
            st.put("fw/manifest", &old).unwrap();
            let err = refused(&st);
            st.put("fw/manifest", &new).unwrap();
            assert!(err.starts_with("the manifest of \"fw\" is"), "{err}");
            load_flix(&st, "fw", cg.clone()).unwrap();
        }
    }

    /// A store saved under "FLT2" holds every array at four bytes an
    /// element; read as this format an array's first element would be
    /// taken for its count and widths. The word refuses every blob, by
    /// name, in `load_flix` and — for the manifest — in `DiskFlix::open`.
    /// Such an image is the count-prefixed one behind a format word: a
    /// prefix is a `u64` either way.
    #[test]
    fn flt2_images_are_rejected_on_load() {
        use mirror::{count_prefixed, flt2, CountedManifest, CountedMeta, Flt2Manifest, Flt2Meta};
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        for config in [
            FlixConfig::MaximalPpo,
            FlixConfig::UnconnectedHopi { partition_size: 40 },
            FlixConfig::Monolithic(crate::config::StrategyKind::Apex),
        ] {
            let flix = Flix::build(cg.clone(), config);
            let mut st = store();
            save_flix(&flix, &mut st, "fw").unwrap();
            let mut old = store();
            let manifest = mirror::flt4_manifest(&flix, b"FLT4");
            let twin = flt2::<Flt2Manifest>(&manifest);
            assert_eq!(
                twin.len(),
                count_prefixed::<CountedManifest>(&manifest).len() + 4
            );
            old.put("fw/manifest", &twin).unwrap();
            for mi in 0..flix.meta_count() {
                let new = image(flix.meta(mi as u32)).unwrap();
                let flt3 = mirror::flt3_image(flix.meta(mi as u32));
                let twin = flt2::<Flt2Meta>(&flt3);
                assert_eq!(twin.len(), count_prefixed::<CountedMeta>(&flt3).len() + 4);
                assert!(twin.len() > flt3.len(), "{config}: meta {mi}");
                assert!(flt3.len() >= new.len(), "{config}: meta {mi}");
                old.put(&format!("fw/meta-{mi}"), &twin).unwrap();
            }
            let report = st.get("fw/report").unwrap().unwrap();
            old.put("fw/report", &flt2::<BuildReport>(&report)).unwrap();

            let err = load_flix(&old, "fw", cg.clone()).unwrap_err();
            let named = "the manifest of \"fw\" is stale or corrupt (image format";
            assert!(err.starts_with(named), "{config}: {err}");
            let Err(err) = crate::DiskFlix::open(old, "fw", 4) else {
                panic!("{config}: opened over an FLT2 manifest");
            };
            assert!(err.starts_with(named), "{config}: {err}");
            // Behind this build's manifest, the first meta document is
            // refused, and so is the report once every meta document is
            // this build's.
            let mut old = store();
            save_flix(&flix, &mut old, "fw").unwrap();
            for mi in 0..flix.meta_count() {
                let flt3 = mirror::flt3_image(flix.meta(mi as u32));
                mirror::put_image(&mut old, "fw", mi, &flt2::<Flt2Meta>(&flt3));
            }
            let err = load_flix(&old, "fw", cg.clone()).unwrap_err();
            let named = "meta document 0 is stale or corrupt (image format";
            assert!(err.starts_with(named), "{config}: {err}");
            let mut old = store();
            save_flix(&flix, &mut old, "fw").unwrap();
            old.put("fw/report", &flt2::<BuildReport>(&report)).unwrap();
            let err = load_flix(&old, "fw", cg.clone()).unwrap_err();
            let named = "the build report of \"fw\" is stale or corrupt (image format";
            assert!(err.starts_with(named), "{config}: {err}");
        }
    }

    /// A build report as builds wrote it while the HOPI cover cut each meta
    /// document into partitions: its stages also held `partitions`,
    /// `border_centers` and `threads`. With a HOPI meta document in it,
    /// such a report is refused by name rather than read into other fields;
    /// without one, it is this build's bytes and loads equal.
    #[test]
    fn reports_with_partitioned_cover_stages_are_rejected_on_load() {
        use crate::config::StrategyKind;
        #[derive(Serialize)]
        struct Stages {
            rank_micros: u64,
            merge_micros: u64,
            cover_micros: u64,
            partitions: usize,
            border_centers: usize,
            threads: usize,
        }
        #[derive(Serialize)]
        struct Meta {
            strategy: StrategyKind,
            nodes: usize,
            edges: usize,
            build_micros: u64,
            index_bytes: usize,
            dropped_links: usize,
            stages: Option<Stages>,
        }
        #[derive(Serialize)]
        struct Report {
            config: FlixConfig,
            threads: usize,
            planning_micros: u64,
            indexing_micros: u64,
            wiring_micros: u64,
            total_micros: u64,
            runtime_links: usize,
            per_meta: Vec<Meta>,
        }
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        for config in [
            FlixConfig::Monolithic(StrategyKind::Hopi),
            FlixConfig::UnconnectedHopi { partition_size: 40 },
            FlixConfig::MaximalPpo,
        ] {
            let flix = Flix::build(cg.clone(), config);
            let r = flix.build_report();
            let old = Report {
                config: r.config,
                threads: r.threads,
                planning_micros: r.planning_micros,
                indexing_micros: r.indexing_micros,
                wiring_micros: r.wiring_micros,
                total_micros: r.total_micros,
                runtime_links: r.runtime_links,
                per_meta: (r.per_meta.iter())
                    .map(|m| Meta {
                        strategy: m.strategy,
                        nodes: m.nodes,
                        edges: m.edges,
                        build_micros: m.build_micros,
                        index_bytes: m.index_bytes,
                        dropped_links: m.dropped_links,
                        stages: m.stages.map(|s| Stages {
                            rank_micros: s.rank_micros,
                            merge_micros: s.merge_micros,
                            cover_micros: s.cover_micros,
                            partitions: 1,
                            border_centers: 0,
                            threads: 1,
                        }),
                    })
                    .collect(),
            };
            let mut st = store();
            save_flix(&flix, &mut st, "fw").unwrap();
            let old = image(&old).unwrap();
            st.put("fw/report", &old).unwrap();
            let hopi_metas = r.per_meta.iter().filter(|m| m.stages.is_some()).count();
            if hopi_metas == 0 {
                assert!(old == image(r).unwrap(), "{config}");
                let back = load_flix(&st, "fw", cg.clone()).unwrap();
                assert_eq!(back.build_report(), r, "{config}");
                continue;
            }
            let err = load_flix(&st, "fw", cg.clone()).unwrap_err();
            let named = "the build report of \"fw\" is stale or corrupt (does not decode";
            assert!(
                err.starts_with(named),
                "{config}, {hopi_metas} HOPI metas: {err}"
            );
        }
    }

    /// A store saved under "FLT1" holds PPO meta documents numbered by
    /// element, their index six arrays and a label map: read
    /// as this format the three arrays it keeps would decode from the old
    /// image's first three. The word refuses each, by name.
    #[test]
    fn six_array_ppo_images_are_rejected_on_load() {
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        let flix = Flix::build(cg.clone(), FlixConfig::MaximalPpo);
        let mut st = store();
        save_flix(&flix, &mut st, "fw").unwrap();
        for victim in 0..flix.meta_count() as u32 {
            let md = flix.meta(victim);
            let old = mirror::six_array_image(md);
            // Against "FLT2", which wrote arrays as this one did: per
            // element two arrays and a label pair more; per label a key and
            // a map length more, an offset less; one array prefix less.
            let labels: std::collections::BTreeSet<_> =
                md.nodes.iter().map(|&v| cg.tag_of(v)).collect();
            let grown = 16 * md.len() + 4 * labels.len() + 4;
            let flt2 = mirror::flt2::<mirror::Flt2Meta>(&mirror::flt3_image(md));
            assert_eq!(old.len(), flt2.len() + grown, "meta {victim}");
            mirror::put_image(&mut st, "fw", victim as usize, &old);
            let err = load_flix(&st, "fw", cg.clone()).unwrap_err();
            let named = format!("meta document {victim} is stale or corrupt (image format");
            assert!(err.starts_with(&named), "{err}");
            mirror::put_image(&mut st, "fw", victim as usize, &image(md).unwrap());
        }
        load_flix(&st, "fw", cg).unwrap();
    }

    /// A PPO image whose arrays would send a lookup out of bounds, or a
    /// parent walk round forever, is refused on load, by name.
    #[test]
    fn damaged_ppo_images_are_rejected_on_load() {
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        let flix = Flix::build(cg.clone(), FlixConfig::MaximalPpo);
        for (damage, fault) in mirror::ppo_damage() {
            let mut st = store();
            save_flix(&flix, &mut st, "fw").unwrap();
            let bytes = mirror::damaged_image(flix.meta(0), damage);
            mirror::put_image(&mut st, "fw", 0, &bytes);
            let err = load_flix(&st, "fw", cg.clone()).unwrap_err();
            let named = "meta document 0 is stale or corrupt (";
            assert!(
                err.starts_with(named) && err.contains(fault),
                "{fault}: {err}"
            );
        }
    }

    /// A meta document whose index is one element short of the node map
    /// the manifest catalogues for it — here another meta document's index,
    /// sound on its own — is refused on load, by name: a query at its last
    /// local would index past the index.
    #[test]
    fn indexes_shorter_than_their_node_map_are_rejected_on_load() {
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        for config in [
            FlixConfig::MaximalPpo,
            FlixConfig::UnconnectedHopi { partition_size: 40 },
        ] {
            let flix = Flix::build(cg.clone(), config);
            let metas: Vec<&MetaDocument> = (0..flix.meta_count() as u32)
                .map(|m| flix.meta(m))
                .collect();
            let (victim, short) = (0..metas.len())
                .find_map(|v| {
                    let short = metas.iter().find(|md| md.len() + 1 == metas[v].len())?;
                    Some((v, *short))
                })
                .expect("two meta documents one element apart");
            let mut st = store();
            save_flix(&flix, &mut st, "fw").unwrap();
            mirror::put_image(&mut st, "fw", victim, &image(short).unwrap());
            let err = load_flix(&st, "fw", cg.clone()).unwrap_err();
            let named = format!("meta document {victim} is stale or corrupt (its index covers");
            assert!(err.starts_with(&named), "{config}: {err}");
        }
    }

    /// An APEX image whose arrays would send a lookup out of bounds is
    /// refused on load, by name, instead of loading and panicking at the
    /// first query.
    #[test]
    fn damaged_apex_images_are_rejected_on_load() {
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        let apex = FlixConfig::Monolithic(crate::config::StrategyKind::Apex);
        let flix = Flix::build(cg.clone(), apex);
        for (damage, fault) in mirror::apex_damage() {
            let mut st = store();
            save_flix(&flix, &mut st, "fw").unwrap();
            let bytes = mirror::damaged_image(flix.meta(0), damage);
            mirror::put_image(&mut st, "fw", 0, &bytes);
            let err = load_flix(&st, "fw", cg.clone()).unwrap_err();
            let named = "meta document 0 is stale or corrupt (";
            assert!(
                err.starts_with(named) && err.contains(fault),
                "{fault}: {err}"
            );
        }
    }

    /// A store written before HOPI's label tables were flat holds one
    /// length-prefixed `Vec` per row. Read as the flat layout those bytes
    /// either run out or put row 0's length (every node has its self-entry,
    /// so at least 1) where the first offset, 0, belongs.
    #[test]
    fn old_hopi_layout_is_rejected_on_load() {
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        let flix = Flix::build(
            cg.clone(),
            FlixConfig::UnconnectedHopi { partition_size: 40 },
        );
        let mut st = store();
        save_flix(&flix, &mut st, "fw").unwrap();
        load_flix(&st, "fw", cg.clone()).unwrap();
        let victim = flix.meta_count() as u32 - 1;
        let old = mirror::old_layout_image(flix.meta(victim));
        let new = image(flix.meta(victim)).unwrap();
        assert!(old.len() > new.len(), "one u64 per row against one u32");
        mirror::put_image(&mut st, "fw", victim as usize, &old);
        let err = load_flix(&st, "fw", cg).unwrap_err();
        assert!(err.contains(&format!("meta document {victim}")), "{err}");
    }

    /// The bytes the ancestors pair of HOPI-backed `md` takes in an image
    /// that stores it: two tables of `n + 1` offsets, every label entry
    /// once more, and four array prefixes.
    fn ancestors_pair_bytes(md: &MetaDocument) -> usize {
        let crate::meta::MetaIndex::Hopi(index) = &md.index else {
            panic!("not a HOPI meta document");
        };
        2 * (16 + 4 * (index.node_count() + 1)) + 8 * index.label_entries()
    }

    /// Puts each meta document's image as `twin` makes it into a stored
    /// HOPI framework in turn: loading must fail on it, by name. The twin is
    /// `extra_bytes` and the ancestors pair longer than this build's index
    /// with its arrays at four bytes an element.
    fn each_twin_is_refused(twin: fn(&MetaDocument) -> Vec<u8>, extra_bytes: isize) {
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        let flix = Flix::build(
            cg.clone(),
            FlixConfig::UnconnectedHopi { partition_size: 40 },
        );
        let mut st = store();
        save_flix(&flix, &mut st, "fw").unwrap();
        load_flix(&st, "fw", cg.clone()).unwrap();
        for victim in 0..flix.meta_count() as u32 {
            let md = flix.meta(victim);
            let old = twin(md);
            let fixed = mirror::fixed_width_index_image(md);
            let grown = ancestors_pair_bytes(md) as isize + extra_bytes;
            assert_eq!(old.len() as isize, fixed.len() as isize + grown);
            mirror::put_image(&mut st, "fw", victim as usize, &old);
            let err = load_flix(&st, "fw", cg.clone()).unwrap_err();
            let named = format!("meta document {victim} is stale or corrupt");
            assert!(err.contains(&named), "{err}");
            mirror::put_image(&mut st, "fw", victim as usize, &image(md).unwrap());
        }
        load_flix(&st, "fw", cg).unwrap();
    }

    /// A store written before HOPI's inverted rows were ordered anchors
    /// first, then by label, holds them in id order, flags no anchor and
    /// has no layout word: the same arrays, which the binary searches of a
    /// lookup would miss links and results on, so loading must fail.
    #[test]
    fn id_ordered_hopi_rows_are_rejected_on_load() {
        each_twin_is_refused(mirror::id_ordered_image, -4);
    }

    /// A store written before the ancestors pair was derived holds all four
    /// label tables behind the "ROW2" layout word: read as this layout, its
    /// `l_in` would be taken for `l_out`, so loading must fail.
    #[test]
    fn four_table_hopi_images_are_rejected_on_load() {
        each_twin_is_refused(mirror::four_table_image, 0);
    }

    /// A store written while HOPI's inverted rows were ordered anchors
    /// first, then by label, then by id holds the same arrays behind the
    /// "ROW3" layout word. A join within a budget would stop at a far row
    /// with nearer ones behind it, so loading must fail, by name, before
    /// the first lookup.
    #[test]
    fn row3_hopi_images_are_rejected_on_load() {
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        let flix = Flix::build(
            cg.clone(),
            FlixConfig::UnconnectedHopi { partition_size: 40 },
        );
        let mut st = store();
        save_flix(&flix, &mut st, "fw").unwrap();
        let mut reordered = 0;
        for victim in 0..flix.meta_count() as u32 {
            let md = flix.meta(victim);
            let (old, new) = (mirror::row3_image(md), image(md).unwrap());
            assert_eq!(old.len(), new.len());
            let layout_at = old.windows(4).position(|w| w == b"ROW3").unwrap();
            reordered += usize::from(old[layout_at + 4..] != new[layout_at + 4..]);
            mirror::put_image(&mut st, "fw", victim as usize, &old);
            let err = load_flix(&st, "fw", cg.clone()).unwrap_err();
            let named =
                format!("meta document {victim} is stale or corrupt (label tables in layout");
            assert!(err.starts_with(&named), "{err}");
            mirror::put_image(&mut st, "fw", victim as usize, &new);
        }
        assert!(reordered > 0, "no row of any image changed order");
        load_flix(&st, "fw", cg).unwrap();
    }

    /// A HOPI image whose label entries name a node the index does not hold
    /// would index out of bounds at the first lookup, or when the ancestors
    /// pair is derived from it; loading must fail instead, in either stored
    /// table.
    #[test]
    fn label_entries_naming_no_node_are_rejected_on_load() {
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        let flix = Flix::build(
            cg.clone(),
            FlixConfig::UnconnectedHopi { partition_size: 40 },
        );
        let damage: [fn(&mut mirror::Hopi); 2] = [
            |hopi| hopi.l_out.entries[0].0 = hopi.l_out.offsets.len() as u32 - 1,
            |hopi| hopi.in_index.entries.last_mut().unwrap().0 = u32::MAX,
        ];
        for (damage, table) in damage.into_iter().zip(["l_out", "in_index"]) {
            let mut st = store();
            save_flix(&flix, &mut st, "fw").unwrap();
            let bytes = mirror::damaged_image(flix.meta(0), damage);
            mirror::put_image(&mut st, "fw", 0, &bytes);
            let err = load_flix(&st, "fw", cg.clone()).unwrap_err();
            assert!(err.contains("meta document 0 is stale or corrupt"), "{err}");
            assert!(
                err.contains(&format!("label table {table}: entry")),
                "{err}"
            );
        }
    }

    /// A HOPI image whose label words carry anchor flags — which an image
    /// leaves to its anchor lists: flags set beside them would stop a
    /// lookup at nodes no link leaves — is refused on load, by name.
    #[test]
    fn hopi_flags_that_are_not_the_anchor_lists_are_rejected_on_load() {
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        let flix = Flix::build(
            cg.clone(),
            FlixConfig::UnconnectedHopi { partition_size: 40 },
        );
        let victim = (0..flix.meta_count() as u32)
            .find(|&m| !flix.meta(m).link_targets.is_empty())
            .expect("a meta document some link arrives at");
        for damage in mirror::hopi_flag_damage() {
            let mut st = store();
            save_flix(&flix, &mut st, "fw").unwrap();
            let bytes = mirror::damaged_image(flix.meta(victim), damage);
            mirror::put_image(&mut st, "fw", victim as usize, &bytes);
            let err = load_flix(&st, "fw", cg.clone()).unwrap_err();
            let named = format!("meta document {victim} is stale or corrupt (");
            assert!(
                err.starts_with(&named) && err.contains("anchor flags"),
                "{err}"
            );
        }
    }

    /// Pins the manifest's on-disk layout: the format word, then nine
    /// fields, flat, in this order (the codec writes a struct as its fields
    /// and nothing else), the six arrays byte-prefixed: `meta_of` as runs
    /// of one meta document; the meta documents whose locals are not their
    /// elements' ranks by id, and their elements' locals as runs ascending
    /// by one; the runtime links; the first meta document of each segment,
    /// packed while it fits a chunk; each image's length. Read back, it
    /// gives the built catalogue, node maps and anchor lists.
    #[test]
    fn manifest_keeps_the_flat_field_order() {
        #[derive(Serialize)]
        struct FlatManifest {
            config: FlixConfig,
            node_count: usize,
            meta_count: usize,
            #[serde(with = "graphcore::flat")]
            meta_of: Vec<(u32, u32)>,
            #[serde(with = "graphcore::flat")]
            renumbered: Vec<u32>,
            #[serde(with = "graphcore::flat")]
            local_of: Vec<(u32, u32)>,
            #[serde(with = "graphcore::flat")]
            runtime_links: Vec<(NodeId, NodeId)>,
            #[serde(with = "graphcore::flat")]
            segments: Vec<u32>,
            #[serde(with = "graphcore::flat")]
            image_len: Vec<u32>,
        }
        /// `values` as `(position, value)` where a value is not its run's
        /// first plus `step` per position since.
        fn cut(values: &[u32], step: u32) -> Vec<(u32, u32)> {
            let mut runs: Vec<(u32, u32)> = Vec::new();
            for (i, &v) in (0u32..).zip(values) {
                match runs.last() {
                    Some(&(start, first)) if first + step * (i - start) == v => {}
                    _ => runs.push((i, v)),
                }
            }
            runs
        }
        let dblp = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        for (cg, config, renumbered, segments) in [
            (sample(), FlixConfig::Naive, false, 1),
            (
                dblp.clone(),
                FlixConfig::UnconnectedHopi { partition_size: 40 },
                false,
                2,
            ),
            (dblp, FlixConfig::MaximalPpo, true, 1),
        ] {
            let flix = Flix::build(cg.clone(), config);
            let nodes = 0..cg.node_count() as NodeId;
            let meta_of: Vec<u32> = nodes.clone().map(|u| flix.meta_of(u)).collect();
            // Each element's rank by id within its meta document.
            let mut seen = vec![0; flix.meta_count()];
            let ranks = meta_of.iter().map(|&m| {
                seen[m as usize] += 1;
                seen[m as usize] - 1
            });
            let mut stored = vec![false; flix.meta_count()];
            for (u, rank) in nodes.clone().zip(ranks.collect::<Vec<u32>>()) {
                stored[meta_of[u as usize] as usize] |= flix.local_of(u) != rank;
            }
            let locals: Vec<u32> = (nodes.filter(|&u| stored[meta_of[u as usize] as usize]))
                .map(|u| flix.local_of(u))
                .collect();
            let image_len: Vec<u32> = (0..flix.meta_count() as u32)
                .map(|mi| pagestore::to_bytes(flix.meta(mi)).unwrap().len() as u32)
                .collect();
            let mut firsts = Vec::new();
            let mut room = 0;
            for (mi, &len) in (0u32..).zip(&image_len) {
                if len as usize > room {
                    firsts.push(mi);
                    room = (pagestore::CHUNK - 4).saturating_sub(len as usize);
                } else {
                    room -= len as usize;
                }
            }
            assert_eq!(firsts.len(), segments, "{config}");
            let flat = FlatManifest {
                config: flix.config(),
                node_count: cg.node_count(),
                meta_count: flix.meta_count(),
                renumbered: (0..flix.meta_count() as u32)
                    .filter(|&m| stored[m as usize])
                    .collect(),
                meta_of: cut(&meta_of, 0),
                local_of: cut(&locals, 1),
                runtime_links: flix.runtime_links().to_vec(),
                segments: firsts,
                image_len,
            };
            assert_eq!(!flat.renumbered.is_empty(), renumbered, "{config}");
            let bytes = [b"FLT6".to_vec(), pagestore::to_bytes(&flat).unwrap()].concat();
            let mut st = store();
            save_flix(&flix, &mut st, "fw").unwrap();
            assert_eq!(st.get("fw/manifest").unwrap().unwrap(), bytes, "{config}");
            st.put("twin/manifest", &bytes).unwrap();
            let (read, catalogue, metas) = load_manifest(&st, "twin").unwrap();
            assert_eq!((read, metas.len()), (config, flix.meta_count()));
            for (mi, parts) in metas.iter().enumerate() {
                let built = flix.meta(mi as u32);
                assert_eq!(parts.nodes, built.nodes, "{config} meta {mi}");
                assert_eq!(parts.link_sources, built.link_sources, "{config} meta {mi}");
                assert_eq!(parts.link_targets, built.link_targets, "{config} meta {mi}");
            }
            assert_eq!(catalogue, *flix.catalogue(), "{config}");
        }
    }

    /// An edit of a stored manifest, and what its refusal says.
    type ManifestDamage = (fn(&mut Manifest), &'static str);

    /// Saves `flix` with each `damage` done to its manifest in turn: each
    /// is refused by `load_flix` and by `DiskFlix::open`, by name.
    fn each_damaged_manifest_is_refused(flix: &Flix, damage: &[ManifestDamage]) {
        for &(damage, fault) in damage {
            let mut st = store();
            save_flix(flix, &mut st, "fw").unwrap();
            let good = st.get("fw/manifest").unwrap().unwrap();
            st.put("fw/manifest", &mirror::damaged_manifest(&good, damage))
                .unwrap();
            let refused = |err: String| {
                let named = "the manifest of \"fw\" is stale or corrupt (";
                assert!(err.starts_with(named) && err.contains(fault), "{err}");
            };
            refused(load_flix(&st, "fw", flix.collection_arc()).unwrap_err());
            refused(crate::DiskFlix::open(st, "fw", 4).err().unwrap());
        }
    }

    /// A manifest whose catalogue would break a lookup — a link table the
    /// run index and the anchor sets cannot be built on, a map that names
    /// no meta document, a stored numbering that does not fit the meta
    /// documents it names, a local past its document's end or one local for
    /// two nodes — is refused by `load_flix` and by `DiskFlix::open`, by
    /// name, before any query can index out of bounds or miss a link; and
    /// a meta document image of another length than the manifest
    /// catalogues is refused on load.
    #[test]
    fn manifests_that_would_break_a_lookup_are_rejected_on_load() {
        use crate::pee::MetaSpace;
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        let flix = Flix::build(cg.clone(), FlixConfig::Naive);
        assert!(flix.runtime_links().len() >= 2 && flix.meta_count() >= 2);
        each_damaged_manifest_is_refused(
            &flix,
            &[
                (|m| m.runtime_links.swap(0, 1), "follows"),
                (|m| m.runtime_links.push(m.runtime_links[0]), "follows"),
                (
                    |m| m.runtime_links.last_mut().unwrap().1 = m.node_count as NodeId,
                    "past",
                ),
                (|m| m.runtime_links[0].0 = NodeId::MAX, "follows"),
                (|m| m.meta_of[0].0 = 1, "meta_of run 0 at 1.."),
                (|m| m.meta_of.swap(1, 2), "meta_of run 1 at"),
                (|m| m.meta_of.push((m.node_count as u32, 0)), ", not "),
                (
                    |m| m.meta_of[1].1 = m.meta_count as u32,
                    "is in meta document",
                ),
                (
                    |m| m.node_count = NodeId::MAX as usize + 1,
                    "4294967296 nodes",
                ),
                (|m| m.meta_count = m.node_count + 1, "meta documents, "),
                (
                    |m| {
                        m.image_len.pop();
                    },
                    "images, ",
                ),
                // Every meta document of this framework is in id order.
                (|m| m.renumbered.push(0), "local_of runs cover 0 of"),
                (|m| m.local_of.push((0, 0)), "local_of run 0 at 0..0, not 0"),
                (|m| m.segments[0] = 1, "segment run 0 at 1.."),
                (|m| m.segments.push(m.segments[0]), "segment run"),
                (|m| m.segments.push(m.meta_count as u32), "segment run"),
            ],
        );
        let ppo = Flix::build(cg.clone(), FlixConfig::MaximalPpo);
        each_damaged_manifest_is_refused(
            &ppo,
            &[
                (|m| m.renumbered.push(m.meta_count as u32), "is renumbered"),
                (|m| m.local_of[0].1 = m.node_count as u32, "which holds"),
                // A run counting past `u32` wraps through `u32::MAX`.
                (|m| m.local_of[0].1 = u32::MAX, "is local 4294967295"),
                (
                    |m| m.local_of.insert(1, (1, m.local_of[0].1)),
                    "as is an earlier node",
                ),
                (|m| m.local_of.swap(1, 2), "local_of run 1 at"),
                (
                    |m| {
                        m.local_of.remove(0);
                    },
                    "local_of run 0 at",
                ),
            ],
        );

        // Image lengths that overrun their segment, or cut an image short
        // of where the next one begins or the segment ends, refuse the meta
        // document when it is loaded, by name.
        let mut st = store();
        save_flix(&flix, &mut st, "fw").unwrap();
        let good = st.get("fw/manifest").unwrap().unwrap();
        // The image length of the last meta document of the first segment.
        fn last_len(m: &mut Manifest) -> &mut u32 {
            let last = m.segments.get(1).map_or(m.meta_count, |&s| s as usize) - 1;
            &mut m.image_len[last]
        }
        let m: Manifest = decode(&good).unwrap();
        let last = m.segments.get(1).map_or(m.meta_count, |&s| s as usize) - 1;
        assert!(last > 0, "meta documents 0 and 1 share a segment");
        let damage: [(bool, ManifestDamage); 4] = [
            (true, (|m| *last_len(m) += 1, "ends past its segment's")),
            (
                false,
                (|m| m.image_len[0] += 1 << 30, "ends past its segment's"),
            ),
            (true, (|m| *last_len(m) -= 1, "does not decode")),
            (
                false,
                (
                    |m| {
                        m.image_len[0] -= 1;
                        m.image_len[1] += 1;
                    },
                    "does not decode",
                ),
            ),
        ];
        for (at_last, (damage, fault)) in damage {
            let mut st = store();
            save_flix(&flix, &mut st, "fw").unwrap();
            let bytes = mirror::damaged_manifest(&good, damage);
            st.put("fw/manifest", &bytes).unwrap();
            let victim = if at_last { last } else { 0 };
            let named = format!("meta document {victim} is stale or corrupt (");
            let err = load_flix(&st, "fw", cg.clone()).unwrap_err();
            assert!(err.starts_with(&named) && err.contains(fault), "{err}");
            let dflix = crate::DiskFlix::open(st, "fw", 4).unwrap();
            let Err(err) = dflix.meta(victim as u32) else {
                panic!("{fault}: loaded");
            };
            assert!(err.starts_with(&named) && err.contains(fault), "{err}");
        }

        // Meta document 0's blob holds meta document 1's image: the
        // manifest says how many elements meta document 0 holds.
        let (a, b) = (flix.meta(0), flix.meta(1));
        assert_ne!(a.len(), b.len());
        let mut st = store();
        save_flix(&flix, &mut st, "fw").unwrap();
        mirror::put_image(&mut st, "fw", 0, &image(b).unwrap());
        let fault = format!(
            "meta document 0 is stale or corrupt (its index covers {} elements, the manifest catalogues {})",
            b.len(),
            a.len()
        );
        let err = load_flix(&st, "fw", cg.clone()).unwrap_err();
        assert!(err.starts_with(&fault), "{err}");
        let dflix = crate::DiskFlix::open(st, "fw", 4).unwrap();
        let err = dflix.find_descendants(a.nodes[0], 0, &QueryOptions::default());
        assert!(err.unwrap_err().starts_with(&fault));
    }

    /// 64-bit FNV-1a of `bytes`.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every configuration, and the digest `tests/image_digests.rs` pinned
    /// for its store under the format named in the test using it.
    type Pinned = [(FlixConfig, u64); 7];

    /// Saves each configuration of `pinned` over the tiny corpus as an
    /// older build did — `manifest` and `image` make its blobs — checks
    /// that the store folds to the digest that build's bytes were pinned
    /// at, and that its format word `word` refuses each blob, by name: the
    /// manifest in `load_manifest`, `load_flix` and `DiskFlix::open`, each
    /// meta document, put behind this build's manifest
    /// ([`mirror::put_image`]), in `load_meta`, `load_flix` and at the
    /// `DiskFlix` miss that reads it.
    fn each_older_store_is_refused(
        word: &[u8; 4],
        manifest: fn(&Flix) -> Vec<u8>,
        old_image: fn(&MetaDocument) -> Vec<u8>,
        pinned: Pinned,
    ) {
        use crate::pee::MetaSpace;
        let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(33)).seal());
        let found = format!("image format {:#010x}", u32::from_le_bytes(*word));
        for (config, old_digest) in pinned {
            let flix = Flix::build(cg.clone(), config);
            let mut old = store();
            old.put("fw/manifest", &manifest(&flix)).unwrap();
            for mi in 0..flix.meta_count() as u32 {
                old.put(&format!("fw/meta-{mi}"), &old_image(flix.meta(mi)))
                    .unwrap();
            }
            let digest = old.names().iter().fold(0u64, |acc, name| {
                acc.rotate_left(5) ^ fnv1a64(&old.get(name).unwrap().unwrap())
            });
            assert_eq!(digest, old_digest, "{config}: {digest:016x}");

            let named = format!("the manifest of \"fw\" is stale or corrupt ({found}");
            let Err(err) = load_manifest(&old, "fw") else {
                panic!("{config}: read an old manifest");
            };
            assert!(err.starts_with(&named), "{config}: {err}");
            let err = load_flix(&old, "fw", cg.clone()).unwrap_err();
            assert!(err.starts_with(&named), "{config}: {err}");
            let Err(err) = crate::DiskFlix::open(old, "fw", 4) else {
                panic!("{config}: opened over an old manifest");
            };
            assert!(err.starts_with(&named), "{config}: {err}");

            let mut old = store();
            save_flix(&flix, &mut old, "fw").unwrap();
            for mi in 0..flix.meta_count() {
                mirror::put_image(&mut old, "fw", mi, &old_image(flix.meta(mi as u32)));
            }
            let err = load_flix(&old, "fw", cg.clone()).unwrap_err();
            let named = format!("meta document 0 is stale or corrupt ({found}");
            assert!(err.starts_with(&named), "{config}: {err}");
            let (.., metas) = load_manifest(&old, "fw").unwrap();
            for (mi, parts) in metas.into_iter().enumerate() {
                let named = format!("meta document {mi} is stale or corrupt ({found}");
                let err = load_meta(&old, "fw", mi, parts).unwrap_err();
                assert!(err.starts_with(&named), "{config}: {err}");
            }
            let dflix = crate::DiskFlix::open(old, "fw", 4).unwrap();
            for mi in 0..flix.meta_count() {
                let named = format!("meta document {mi} is stale or corrupt ({found}");
                let Err(err) = dflix.meta(mi as u32) else {
                    panic!("{config}: meta document {mi} loaded from an old image");
                };
                assert!(err.starts_with(&named), "{config}: {err}");
            }
        }
    }

    /// A store saved under "FLT5" holds each meta document's image in a blob
    /// of its own and `meta_of` and the stored locals flat in its manifest.
    /// The mirror's "FLT5" blobs are that build's bytes — folded as
    /// `tests/image_digests.rs` folds a store, they give the digests it
    /// pinned for "FLT5" — and the word refuses each.
    #[test]
    fn flt5_images_are_rejected_on_load() {
        use crate::config::StrategyKind;
        each_older_store_is_refused(
            b"FLT5",
            mirror::flt5_manifest,
            mirror::flt5_image,
            [
                (FlixConfig::Naive, 0x9c98_ca2f_bbd9_cfd5),
                (FlixConfig::MaximalPpo, 0x8224_44bd_f6d5_51a0),
                (
                    FlixConfig::UnconnectedHopi {
                        partition_size: 5000,
                    },
                    0x8b4d_f136_4ec5_78f3,
                ),
                (
                    FlixConfig::Hybrid {
                        partition_size: 5000,
                    },
                    0x7677_cc14_0eac_5aaf,
                ),
                (
                    FlixConfig::Monolithic(StrategyKind::Ppo),
                    0x0757_fe71_625e_549b,
                ),
                (
                    FlixConfig::Monolithic(StrategyKind::Hopi),
                    0xc7cf_f1e5_4f92_8a35,
                ),
                (
                    FlixConfig::Monolithic(StrategyKind::Apex),
                    0x7894_e513_86e8_b6af,
                ),
            ],
        );
    }

    /// A store saved under "FLT4" holds each meta document's anchor lists
    /// behind its index and every element's local in its manifest. The
    /// mirror's "FLT4" blobs are that build's bytes — folded as
    /// `tests/image_digests.rs` folds a store, they give the digests it
    /// pinned for "FLT4" — and the word refuses each.
    #[test]
    fn flt4_images_are_rejected_on_load() {
        use crate::config::StrategyKind;
        each_older_store_is_refused(
            b"FLT4",
            |flix| mirror::flt4_manifest(flix, b"FLT4"),
            mirror::flt4_image,
            [
                (FlixConfig::Naive, 0x47e4_543e_58c7_b199),
                (FlixConfig::MaximalPpo, 0xba02_25f4_c168_959e),
                (
                    FlixConfig::UnconnectedHopi {
                        partition_size: 5000,
                    },
                    0x7657_1f08_9679_466d,
                ),
                (
                    FlixConfig::Hybrid {
                        partition_size: 5000,
                    },
                    0xa817_a7dc_7b8e_b2b0,
                ),
                (
                    FlixConfig::Monolithic(StrategyKind::Ppo),
                    0x1090_633b_85af_e3bf,
                ),
                (
                    FlixConfig::Monolithic(StrategyKind::Hopi),
                    0x1e8f_5ac4_dfbb_40bb,
                ),
                (
                    FlixConfig::Monolithic(StrategyKind::Apex),
                    0x55ed_6c89_7c18_3d26,
                ),
            ],
        );
    }

    /// A store saved under "FLT3" holds every meta document with its node
    /// map, PPO's depths and parents, HOPI's anchor flags and the anchor
    /// lists, behind the "FLT4" manifest. The mirror's "FLT3" blobs are
    /// that build's bytes — they fold to the digests pinned for "FLT3" —
    /// and the word refuses each.
    #[test]
    fn flt3_images_are_rejected_on_load() {
        use crate::config::StrategyKind;
        each_older_store_is_refused(
            b"FLT3",
            |flix| mirror::flt4_manifest(flix, b"FLT3"),
            mirror::flt3_image,
            [
                (FlixConfig::Naive, 0x52b7_24b0_5d1f_9e91),
                (FlixConfig::MaximalPpo, 0xaa34_1272_00de_d424),
                (
                    FlixConfig::UnconnectedHopi {
                        partition_size: 5000,
                    },
                    0x09db_3b98_759f_115b,
                ),
                (
                    FlixConfig::Hybrid {
                        partition_size: 5000,
                    },
                    0x7e0d_e58b_3786_c37f,
                ),
                (
                    FlixConfig::Monolithic(StrategyKind::Ppo),
                    0x512c_32e5_5e7c_1265,
                ),
                (
                    FlixConfig::Monolithic(StrategyKind::Hopi),
                    0x5ff3_3daf_f59c_0b84,
                ),
                (
                    FlixConfig::Monolithic(StrategyKind::Apex),
                    0xffbd_d407_7a6a_bd02,
                ),
            ],
        );
    }

    /// The round-trip oracle of the fields an image or the manifest leaves
    /// out: every meta document that `load_flix` or a `DiskFlix` miss reads
    /// back equals the built one field by field — the node map, derived
    /// from `meta_of` alone where the numbering is id order, the anchor
    /// lists, derived from the runtime links, and the index whole, HOPI's
    /// label words with their flags and PPO's depths and parents included
    /// — and both answer as the built framework does; every configuration,
    /// two corpora.
    #[test]
    fn every_meta_document_loads_as_it_was_built() {
        use crate::config::StrategyKind;
        use crate::meta::MetaIndex;
        use crate::pee::{MetaSpace, Query, QueryCtx};
        for seed in [33, 7] {
            let cg = Arc::new(workloads::generate_dblp(&workloads::DblpConfig::tiny(seed)).seal());
            let queries = workloads::descendant_queries(&cg, 6, 44);
            for config in [
                FlixConfig::Naive,
                FlixConfig::MaximalPpo,
                FlixConfig::UnconnectedHopi {
                    partition_size: 5000,
                },
                FlixConfig::Hybrid {
                    partition_size: 5000,
                },
                FlixConfig::Hybrid { partition_size: 40 },
                FlixConfig::Monolithic(StrategyKind::Ppo),
                FlixConfig::Monolithic(StrategyKind::Hopi),
                FlixConfig::Monolithic(StrategyKind::Apex),
            ] {
                let flix = Flix::build(cg.clone(), config);
                let mut st = store();
                save_flix(&flix, &mut st, "fw").unwrap();
                // Locals are stored for the elements of the meta documents
                // not numbered in id order, and only PPO renumbers.
                let manifest: Manifest = decode(&st.get("fw/manifest").unwrap().unwrap()).unwrap();
                let renumbered: Vec<u32> = (0..flix.meta_count() as u32)
                    .filter(|&mi| flix.meta(mi).nodes.windows(2).any(|w| w[0] > w[1]))
                    .collect();
                let ppo =
                    (renumbered.iter()).all(|&mi| flix.meta(mi).index.kind() == StrategyKind::Ppo);
                assert!(ppo, "seed {seed}, {config}");
                assert_eq!(manifest.renumbered, renumbered, "seed {seed}, {config}");
                let loaded = load_flix(&st, "fw", cg.clone()).unwrap();
                let dflix = crate::DiskFlix::open(st, "fw", 2).unwrap();
                for mi in 0..flix.meta_count() as u32 {
                    let built = flix.meta(mi);
                    let from_disk = dflix.meta(mi).unwrap();
                    for md in [loaded.meta(mi), &from_disk] {
                        let case = format!("seed {seed}, {config}, meta document {mi}");
                        assert_eq!(md.nodes, built.nodes, "{case}");
                        assert_eq!(md.link_sources, built.link_sources, "{case}");
                        assert_eq!(md.link_targets, built.link_targets, "{case}");
                        let same = match (&md.index, &built.index) {
                            (MetaIndex::Ppo(a), MetaIndex::Ppo(b)) => a == b,
                            (MetaIndex::Hopi(a), MetaIndex::Hopi(b)) => a == b,
                            (MetaIndex::Apex(a), MetaIndex::Apex(b)) => {
                                pagestore::to_bytes(&**a).unwrap()
                                    == pagestore::to_bytes(&**b).unwrap()
                            }
                            _ => false,
                        };
                        assert!(same, "{case}: the index differs");
                    }
                }
                for q in &queries {
                    for axis in [crate::Axis::Descendants, crate::Axis::Ancestors] {
                        let query = Query {
                            axis,
                            ..Query::descendants(q.start, q.target_tag, QueryOptions::default())
                        };
                        let want = flix.evaluate(&query, &mut QueryCtx::default());
                        let got = loaded.evaluate(&query, &mut QueryCtx::default());
                        let disk = dflix.evaluate(&query, &mut QueryCtx::default()).unwrap();
                        assert_eq!(got.results, want.results, "seed {seed}, {config}");
                        assert_eq!(disk.results, want.results, "seed {seed}, {config}");
                        assert_eq!((got.stats, disk.stats), (want.stats, want.stats));
                    }
                }
            }
        }
    }

    #[test]
    fn missing_framework_errors() {
        let st = store();
        assert!(load_flix(&st, "nope", sample()).is_err());
    }

    #[test]
    fn wrong_collection_rejected() {
        let cg = sample();
        let flix = Flix::build(cg, FlixConfig::Naive);
        let mut st = store();
        save_flix(&flix, &mut st, "fw").unwrap();
        // a different (smaller) collection
        let mut c2 = Collection::new();
        let t = c2.tags.intern("x");
        let mut d = Document::new("only.xml");
        d.add_element(t, None);
        c2.add_document(d).unwrap();
        let err = load_flix(&st, "fw", Arc::new(c2.seal())).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }
}
