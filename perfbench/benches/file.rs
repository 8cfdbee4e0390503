//! `file_2mib`: the path users run, `prlc encode` and `prlc decode` of a
//! file. It is the only workload that exercises shard I/O,
//! payload-carrying elimination and on-disk overhead, and it leaves the
//! network layer idle.
//!
//! One iteration encodes a 2 MiB seeded random file at levels 20/30/50,
//! PLC, overhead 2.0 and 1 KiB blocks (N = 2048 source blocks, 4096
//! shards), decodes it fully and compares the bytes, then deletes a
//! seeded uniform half of the shards and decodes the surviving prefix.
//!
//! `prlc encode` names shards in level order (all level-0 shards first),
//! so deleting a range of names would delete one level's shards and skew
//! the partial outcome; [`choose_half`] draws the deleted half uniformly
//! over all shards instead.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use prlc_cli::format::{self, Manifest};
use prlc_cli::{decode, encode, DecodeOptions, EncodeOptions};
use prlc_core::{
    Encoder, PlcDecoder, PriorityDecoder, PriorityDistribution, PriorityProfile, Scheme,
};
use prlc_gf::{Gf256, GfElem};
use prlc_sim::{run_seed, splitmix64};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::harness::{ms_since, repeat_setup, timed, Args, Report, Samples};
use crate::layers::{self, LayerTimes};

pub const INPUT_LEN: usize = 2 * 1024 * 1024;
pub const BLOCK_SIZE: usize = 1024;
const LEVEL_SHARES: [f64; 3] = [20.0, 30.0, 50.0];
const OVERHEAD: f64 = 2.0;
/// The first iterations, whose partial outcomes make the `levels`
/// metric; a fixed count keeps it a function of the seed alone.
const OUTCOME_ITERS: usize = 3;
const INPUT_TAG: u64 = 0x4649_4c45; // "FILE"
const DELETE_TAG: u64 = 0x4445_4c45; // "DELE"

/// Width of one coefficient row in the decoder (N source blocks).
pub const ROW_WIDTH: usize = INPUT_LEN / BLOCK_SIZE;

fn options(seed: u64) -> EncodeOptions {
    EncodeOptions {
        block_size: BLOCK_SIZE,
        level_shares: LEVEL_SHARES.to_vec(),
        overhead: OVERHEAD,
        scheme: Scheme::Plc,
        distribution: None,
        seed,
    }
}

/// The seeded random input file.
pub fn input_bytes(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ INPUT_TAG));
    let mut data = vec![0u8; INPUT_LEN];
    for chunk in data.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
    data
}

/// Shard files of `dir`, sorted by name (the order `prlc decode` reads).
pub fn shard_paths(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "prlc"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// A seeded uniform choice of `count / 2` of the indices `0..count`
/// (partial Fisher–Yates), sorted.
pub fn choose_half(count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ DELETE_TAG));
    let mut idx: Vec<usize> = (0..count).collect();
    let half = count / 2;
    for k in 0..half {
        let j = rng.gen_range(k..count);
        idx.swap(k, j);
    }
    let mut chosen = idx[..half].to_vec();
    chosen.sort_unstable();
    chosen
}

fn delete_half(dir: &Path, seed: u64) -> Result<(), String> {
    let paths = shard_paths(dir).map_err(|e| e.to_string())?;
    for i in choose_half(paths.len(), seed) {
        fs::remove_file(&paths[i]).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// FNV-1a over the names and bytes of every file in `dir`.
fn dir_digest(dir: &Path) -> Result<u64, String> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    paths.sort();
    let mut all = Vec::new();
    for p in paths {
        all.extend_from_slice(p.file_name().map_or(&[][..], |n| n.as_encoded_bytes()));
        all.extend(fs::read(&p).map_err(|e| e.to_string())?);
    }
    Ok(format::fnv1a(&all))
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn check_prefix(out: &[u8], input: &[u8]) -> Result<(), String> {
    if out.is_empty() || out.len() > input.len() || out != &input[..out.len()] {
        return Err(format!(
            "decoded {} bytes are not a prefix of the input",
            out.len()
        ));
    }
    Ok(())
}

/// What one pass through the three operations produced.
#[derive(Debug, Default)]
struct Pass {
    encode_ms: f64,
    decode_ms: f64,
    partial_ms: f64,
    stored_bytes: u64,
    partial_levels: usize,
    partial_out: Vec<u8>,
    /// Digest of the freshly encoded shard directory (traced runs only).
    digest: Option<u64>,
}

impl Pass {
    fn total_ms(&self) -> f64 {
        self.encode_ms + self.decode_ms + self.partial_ms
    }
}

/// Encode, full decode and partial decode through the entry points
/// `prlc_cli::{encode, decode}`, each verified; counts three operations.
fn entry_pass(
    rep: &mut Report,
    input_path: &Path,
    input: &[u8],
    dir: &Path,
    seed: u64,
    want_digest: bool,
) -> Pass {
    let mut pass = Pass::default();
    let expected_shards = (OVERHEAD * ROW_WIDTH as f64).ceil() as usize;
    let (written, ms) = timed(|| encode(input_path, dir, &options(seed)));
    pass.encode_ms = ms;
    rep.check(
        "encode",
        match written {
            Ok(n) if n == expected_shards => Ok(()),
            Ok(n) => Err(format!("wrote {n} shards, expected {expected_shards}")),
            Err(e) => Err(e.to_string()),
        },
    );
    pass.stored_bytes = dir_bytes(dir);
    if want_digest {
        pass.digest = dir_digest(dir).ok();
    }

    let out = dir.with_extension("out");
    let (full, ms) = timed(|| decode(dir, &out, &DecodeOptions::default()));
    pass.decode_ms = ms;
    rep.check(
        "decode",
        match full {
            Ok(o) if o.complete => match fs::read(&out) {
                Ok(bytes) if bytes == input => Ok(()),
                Ok(_) => Err("decoded bytes differ from the input".into()),
                Err(e) => Err(e.to_string()),
            },
            Ok(o) => Err(format!("incomplete decode: {o:?}")),
            Err(e) => Err(e.to_string()),
        },
    );

    let deleted = delete_half(dir, seed);
    let opts = DecodeOptions {
        allow_partial: true,
    };
    let (partial, ms) = timed(|| decode(dir, &out, &opts));
    pass.partial_ms = ms;
    let outcome = deleted.and_then(|()| {
        let o = partial.map_err(|e| e.to_string())?;
        let bytes = fs::read(&out).map_err(|e| e.to_string())?;
        check_prefix(&bytes, input)?;
        if o.levels_recovered == 0 {
            return Err("no level recovered".into());
        }
        pass.partial_levels = o.levels_recovered;
        pass.partial_out = bytes;
        Ok(())
    });
    rep.check("partial decode", outcome);
    let _ = fs::remove_file(&out);
    pass
}

/// Per-layer tallies of the traced replica.
#[derive(Debug, Default)]
struct FileLayers {
    encode_ms: f64,
    write_ms: f64,
    read_ms: f64,
    insert_ms: f64,
    bytes_written: u64,
    bytes_read: u64,
}

/// `prlc_cli::encode` re-driven through its layers' public functions,
/// timing every encoder call and every shard write. The level split is
/// taken from the entry point's manifest.
fn encode_replica(
    input_path: &Path,
    dir: &Path,
    level_sizes: Vec<usize>,
    seed: u64,
    l: &mut FileLayers,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let data = fs::read(input_path).map_err(|e| err(&e))?;
    let n = data.len().div_ceil(BLOCK_SIZE);
    let profile = PriorityProfile::new(level_sizes.clone()).map_err(|e| err(&e))?;
    let sources: Vec<Vec<Gf256>> = (0..n)
        .map(|i| {
            let end = ((i + 1) * BLOCK_SIZE).min(data.len());
            let mut block: Vec<Gf256> = data[i * BLOCK_SIZE..end]
                .iter()
                .map(|&b| Gf256::new(b))
                .collect();
            block.resize(BLOCK_SIZE, Gf256::ZERO);
            block
        })
        .collect();
    let dist = PriorityDistribution::uniform(profile.num_levels());
    fs::create_dir_all(dir).map_err(|e| err(&e))?;
    let manifest = Manifest {
        file_len: data.len() as u64,
        block_size: BLOCK_SIZE as u32,
        scheme: Scheme::Plc,
        level_sizes: level_sizes.iter().map(|&s| s as u32).collect(),
        file_hash: format::fnv1a(&data),
    };
    let t = Instant::now();
    let f = fs::File::create(dir.join("manifest.prlcm")).map_err(|e| err(&e))?;
    manifest.write_to(f).map_err(|e| err(&e))?;
    l.write_ms += ms_since(t);

    let m = (OVERHEAD * n as f64).ceil() as usize;
    let encoder = Encoder::new(Scheme::Plc, profile);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shard_idx = 0usize;
    for (level, &count) in dist.allocate(m).iter().enumerate() {
        for _ in 0..count {
            let (block, ms) = timed(|| encoder.encode(level, &sources, &mut rng));
            l.encode_ms += ms;
            let t = Instant::now();
            let path = dir.join(format!("shard-{shard_idx:05}.prlc"));
            let f = fs::File::create(path).map_err(|e| err(&e))?;
            format::write_shard(f, &block).map_err(|e| err(&e))?;
            l.write_ms += ms_since(t);
            shard_idx += 1;
        }
    }
    l.bytes_written += dir_bytes(dir);
    Ok(())
}

/// `prlc_cli::decode` re-driven through its layers' public functions,
/// timing every shard read and every decoder insert. Returns the
/// recovered prefix and the decoded level count.
fn decode_replica(dir: &Path, l: &mut FileLayers) -> Result<(Vec<u8>, usize, bool), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let manifest =
        Manifest::read_from(fs::File::open(dir.join("manifest.prlcm")).map_err(|e| err(&e))?)
            .map_err(|e| err(&e))?;
    let profile = manifest.profile().map_err(|e| err(&e))?;
    let n = profile.total_blocks();
    // Every file of the directory is read in full.
    l.bytes_read += dir_bytes(dir);
    let mut decoder: PlcDecoder<Gf256> = PlcDecoder::with_payloads(profile.clone());
    for path in shard_paths(dir).map_err(|e| err(&e))? {
        let t = Instant::now();
        let f = fs::File::open(&path).map_err(|e| err(&e))?;
        let block = format::read_shard(f).map_err(|e| err(&e))?;
        l.read_ms += ms_since(t);
        if block.coefficients.len() != n
            || block.payload.len() != manifest.block_size as usize
            || block.level >= profile.num_levels()
        {
            return Err(format!("{} does not fit the manifest", path.display()));
        }
        let (_, ms) = timed(|| decoder.insert_block(&block));
        l.insert_ms += ms;
    }
    let mut bytes = Vec::new();
    for idx in 0..n {
        match decoder.recovered(idx) {
            Some(payload) => bytes.extend(payload.iter().map(|g| g.raw())),
            None => break,
        }
    }
    bytes.truncate(manifest.file_len as usize);
    let complete = decoder.is_complete();
    if complete && format::fnv1a(&bytes) != manifest.file_hash {
        return Err("recovered file fails its integrity check".into());
    }
    Ok((bytes, decoder.decoded_levels(), complete))
}

/// The replica pass over the same input and seed as `entry`, checked
/// against it. Returns the replica's time in the three operations.
fn replica_pass(
    input_path: &Path,
    input: &[u8],
    entry_dir: &Path,
    dir: &Path,
    seed: u64,
    entry: &Pass,
    l: &mut FileLayers,
) -> Result<f64, String> {
    let manifest = Manifest::read_from(
        fs::File::open(entry_dir.join("manifest.prlcm")).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let sizes = manifest.level_sizes.iter().map(|&s| s as usize).collect();
    let (enc, encode_ms) = timed(|| encode_replica(input_path, dir, sizes, seed, l));
    enc?;
    if entry.digest.is_none() || dir_digest(dir).ok() != entry.digest {
        return Err("replica shards differ from the entry point's".into());
    }
    let (full, decode_ms) = timed(|| decode_replica(dir, l));
    let (bytes, _, complete) = full?;
    if !complete || bytes != input {
        return Err("replica full decode differs from the input".into());
    }
    delete_half(dir, seed)?;
    let (part, partial_ms) = timed(|| decode_replica(dir, l));
    let (bytes, levels, _) = part?;
    if bytes != entry.partial_out || levels != entry.partial_levels {
        return Err(format!(
            "replica partial decode ({levels} levels, {} bytes) differs from the entry point's \
             ({} levels, {} bytes)",
            bytes.len(),
            entry.partial_levels,
            entry.partial_out.len()
        ));
    }
    Ok(encode_ms + decode_ms + partial_ms)
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let input_path = args.work_dir.join("input.bin");
    let (input, setup_s) = repeat_setup(9, || {
        let input = input_bytes(args.seed);
        fs::write(&input_path, &input).map_err(|e| e.to_string())?;
        if fs::read(&input_path).map_err(|e| e.to_string())? != input {
            return Err("input file did not read back".into());
        }
        Ok(input)
    })?;
    rep.set("setup_s", setup_s);
    rep.line(format!(
        "file_2mib: {} B input, N={ROW_WIDTH}, levels {LEVEL_SHARES:?}, PLC, overhead {OVERHEAD}",
        input.len()
    ));

    if args.trace {
        return run_traced(args, rep, &input_path, &input);
    }

    let (mut enc, mut dec) = (Samples::default(), Samples::default());
    let (mut part, mut op) = (Samples::default(), Samples::default());
    let mut levels = Vec::new();
    let mut stored = 0u64;
    let start = Instant::now();
    let mut i = 0;
    while args.keep_going(start, i, OUTCOME_ITERS) {
        let dir = args.work_dir.join(format!("shards-{i}"));
        let pass = entry_pass(
            rep,
            &input_path,
            &input,
            &dir,
            run_seed(args.seed, i),
            false,
        );
        let _ = fs::remove_dir_all(&dir);
        enc.push(pass.encode_ms);
        dec.push(pass.decode_ms);
        part.push(pass.partial_ms);
        op.push(pass.total_ms());
        if i < OUTCOME_ITERS {
            levels.push(pass.partial_levels as f64);
        }
        stored = pass.stored_bytes;
        i += 1;
    }
    // Encode time is dominated here by kernel time creating 4096 shard
    // files, which swings several-fold with the state of a shared disk;
    // it is gated only inside `op_ms` and printed on its own.
    rep.timing("encode", None, "ms", &enc);
    rep.timing("full decode (stage1_ms)", Some("stage1_ms"), "ms", &dec);
    rep.timing("partial decode (stage2_ms)", Some("stage2_ms"), "ms", &part);
    rep.timing("iteration (op_ms)", Some("op_ms"), "ms", &op);
    let mb = INPUT_LEN as f64 / 1e6;
    let lv = levels.iter().sum::<f64>() / levels.len() as f64;
    rep.set("levels", lv);
    rep.line(format!(
        "  encode_mb_s        {:>10.3} MB/s  higher",
        mb / (enc.median() / 1e3)
    ));
    rep.line(format!(
        "  decode_mb_s        {:>10.3} MB/s  higher",
        mb / (dec.median() / 1e3)
    ));
    rep.line(format!(
        "  partial_decode_s   {:>10.4} s     lower",
        part.median() / 1e3
    ));
    rep.line(format!(
        "  partial_levels     {lv:>10.3} levels higher (of {})",
        LEVEL_SHARES.len()
    ));
    rep.line(format!(
        "  stored_bytes_ratio {:>10.4} x     lower",
        stored as f64 / INPUT_LEN as f64
    ));
    Ok(())
}

fn run_traced(
    args: &Args,
    rep: &mut Report,
    input_path: &Path,
    input: &[u8],
) -> Result<(), String> {
    let mut entry_ms = Samples::default();
    let mut replica_ms = Samples::default();
    let mut l = FileLayers::default();
    let mut stored = 0u64;
    prlc_obs::reset();
    let start = Instant::now();
    let mut i = 0;
    while args.keep_going(start, i, 1) {
        let seed = run_seed(args.seed, i);
        let dir = args.work_dir.join(format!("shards-{i}"));
        let rdir = args.work_dir.join(format!("replica-{i}"));
        prlc_obs::disable();
        let pass = entry_pass(rep, input_path, input, &dir, seed, true);
        entry_ms.push(pass.total_ms());
        stored = pass.stored_bytes;
        prlc_obs::enable();
        let replica = replica_pass(input_path, input, &dir, &rdir, seed, &pass, &mut l);
        prlc_obs::disable();
        if let Ok(ms) = replica {
            replica_ms.push(ms);
        }
        rep.check("traced replica", replica.map(|_| ()));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&rdir);
        i += 1;
    }
    let iters = i as f64;
    let snap = prlc_obs::snapshot();
    layers::counters(rep, &snap, iters);
    let times = LayerTimes {
        traced_ms: replica_ms.sum() / iters,
        parts: vec![
            ("core.encode_ms", l.encode_ms / iters),
            ("core.decode_insert_ms", l.insert_ms / iters),
            ("cli.shard_write_ms", l.write_ms / iters),
            ("cli.shard_read_ms", l.read_ms / iters),
        ],
    };
    times.report(rep);
    rep.set("cli.bytes_written", l.bytes_written as f64 / iters);
    rep.set("cli.bytes_read", l.bytes_read as f64 / iters);
    rep.set("cli.stored_bytes_ratio", stored as f64 / INPUT_LEN as f64);
    layers::overhead(rep, &entry_ms, &replica_ms);
    layers::axpy_probes(rep, ROW_WIDTH);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_half_is_seeded_and_exact() {
        let a = choose_half(4096, 7);
        assert_eq!(a.len(), 2048);
        assert_eq!(a, choose_half(4096, 7));
        assert_ne!(a, choose_half(4096, 8));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    /// Shards are named in level order, so the deletion must be uniform
    /// over names to delete about half of every level. Over many seeds
    /// each level loses half its shards on average; deleting the back
    /// half of the names instead would wipe out the last level.
    #[test]
    fn deletion_is_unbiased_across_levels() {
        let dir = std::env::temp_dir().join(format!("perfbench-del-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let input_path = dir.join("in.bin");
        fs::write(&input_path, &input_bytes(3)[..60 * BLOCK_SIZE]).unwrap();
        let shards = dir.join("shards");
        encode(&input_path, &shards, &options(5)).unwrap();
        let levels: Vec<usize> = shard_paths(&shards)
            .unwrap()
            .iter()
            .map(|p| {
                format::read_shard(fs::File::open(p).unwrap())
                    .unwrap()
                    .level
            })
            .collect();
        fs::remove_dir_all(&dir).unwrap();
        assert!(
            levels.windows(2).all(|w| w[0] <= w[1]),
            "names are in level order"
        );

        let per_level = |chosen: &[usize]| {
            let mut hit = [0usize; 3];
            let mut all = [0usize; 3];
            for &l in &levels {
                all[l] += 1;
            }
            for &i in chosen {
                hit[levels[i]] += 1;
            }
            (hit, all)
        };
        let trials = 400;
        let mut frac = [0.0f64; 3];
        for seed in 0..trials {
            let (hit, all) = per_level(&choose_half(levels.len(), seed));
            for l in 0..3 {
                frac[l] += hit[l] as f64 / all[l] as f64 / trials as f64;
            }
        }
        for f in frac {
            assert!(
                (f - 0.5).abs() < 0.02,
                "deleted fractions per level {frac:?}"
            );
        }
        let back_half: Vec<usize> = (levels.len() / 2..levels.len()).collect();
        let (hit, all) = per_level(&back_half);
        assert_eq!(hit[2], all[2], "a name range deletes a whole level");
    }
}
