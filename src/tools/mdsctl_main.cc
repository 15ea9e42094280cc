// mdsctl — offline dataset lifecycle tool for mdsd.
//
//   mdsctl build --out=FILE [--n=ROWS] [--seed=S]
//                [--shard-index=I --shard-count=N]
//                [--grid] [--voronoi] [--provenance=STR] [--csv=FILE]
//   mdsctl inspect FILE
//   mdsctl verify FILE
//
// `build` generates (or ingests, with --csv) a catalog, kd-clusters it and
// writes a self-contained dataset file — manifest, point set, clustered
// point table and index chains — that `mdsd --load=FILE` serves directly.
// The file is written to FILE.tmp and renamed into place only after the
// superblock commit point, so a crashed build never leaves a file a
// server would accept.
//
// `inspect` prints the manifest of an existing file without loading the
// indexes; `verify` performs the full load a server would (checksums,
// manifest validation, kd-tree reconstruction, table attach) and exits
// non-zero if any of it fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/index_io.h"
#include "server/dataset.h"
#include "storage/buffer_pool.h"
#include "storage/mmap_pager.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    value->clear();
    return true;
  }
  if (arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: mdsctl build --out=FILE [--n=ROWS] [--seed=S]\n"
      "              [--shard-index=I --shard-count=N]\n"
      "              [--grid] [--voronoi] [--provenance=STR] [--csv=FILE]\n"
      "       mdsctl inspect FILE\n"
      "       mdsctl verify FILE\n");
  return 2;
}

int RunBuild(int argc, char** argv) {
  mds::DatasetFileOptions options;
  std::string out, csv;
  for (int i = 2; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--out", &v)) {
      out = v;
    } else if (ParseFlag(argv[i], "--n", &v)) {
      options.dataset.num_rows = std::stoull(v);
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      options.dataset.seed = std::stoull(v);
    } else if (ParseFlag(argv[i], "--shard-index", &v)) {
      options.dataset.shard_index = static_cast<uint32_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--shard-count", &v)) {
      options.dataset.shard_count = static_cast<uint32_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--grid", &v)) {
      options.include_grid = true;
    } else if (ParseFlag(argv[i], "--voronoi", &v)) {
      options.include_voronoi = true;
    } else if (ParseFlag(argv[i], "--provenance", &v)) {
      options.provenance = v;
    } else if (ParseFlag(argv[i], "--csv", &v)) {
      csv = v;
    } else {
      return Usage();
    }
  }
  if (out.empty()) return Usage();

  mds::PointSet ingested(0, 0);
  if (!csv.empty()) {
    auto parsed = mds::ReadPointCsv(csv);
    if (!parsed.ok()) {
      std::fprintf(stderr, "mdsctl: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    ingested = std::move(*parsed);
    options.ingest = &ingested;
  }

  // Build into FILE.tmp, rename over FILE only on success: readers (and
  // a crashed build) never observe a half-written dataset.
  const std::string tmp = out + ".tmp";
  std::remove(tmp.c_str());
  mds::Status built = mds::WriteDatasetFile(options, tmp);
  if (!built.ok()) {
    std::fprintf(stderr, "mdsctl: build failed: %s\n",
                 built.ToString().c_str());
    std::remove(tmp.c_str());
    return 1;
  }
  if (std::rename(tmp.c_str(), out.c_str()) != 0) {
    std::fprintf(stderr, "mdsctl: cannot rename %s to %s\n", tmp.c_str(),
                 out.c_str());
    std::remove(tmp.c_str());
    return 1;
  }
  std::printf("mdsctl: built %s\n", out.c_str());
  return 0;
}

int RunInspect(const std::string& path) {
  auto pager = mds::MmapPager::Open(path);
  std::unique_ptr<mds::Pager> owned;
  if (pager.ok()) {
    owned = std::move(*pager);
  } else {
    auto file = mds::FilePager::Open(path);
    if (!file.ok()) {
      std::fprintf(stderr, "mdsctl: %s\n", file.status().ToString().c_str());
      return 1;
    }
    owned = std::move(*file);
  }
  mds::BufferPool pool(owned.get(), 1024);
  auto head = mds::IndexIo::ReadSuperblock(&pool);
  if (!head.ok()) {
    std::fprintf(stderr, "mdsctl: %s\n", head.status().ToString().c_str());
    return 1;
  }
  auto manifest = mds::IndexIo::LoadManifest(&pool, *head);
  if (!manifest.ok()) {
    std::fprintf(stderr, "mdsctl: %s\n",
                 manifest.status().ToString().c_str());
    return 1;
  }
  std::printf("file:         %s\n", path.c_str());
  std::printf("pages:        %llu\n",
              static_cast<unsigned long long>(owned->NumPages()));
  std::printf("version:      %u\n", manifest->version);
  std::printf("dim:          %u\n", manifest->dim);
  std::printf("table_rows:   %llu\n",
              static_cast<unsigned long long>(manifest->table_rows));
  std::printf("total_rows:   %llu\n",
              static_cast<unsigned long long>(manifest->total_rows));
  std::printf("seed:         %llu\n",
              static_cast<unsigned long long>(manifest->seed));
  std::printf("shard:        %u/%u\n", manifest->shard_index,
              manifest->shard_count);
  std::printf("table_pages:  %llu\n",
              static_cast<unsigned long long>(manifest->table_pages.size()));
  std::printf("kdtree:       %s\n",
              manifest->kdtree_head != mds::kInvalidPageId ? "yes" : "no");
  std::printf("grid:         %s\n",
              manifest->grid_head != mds::kInvalidPageId ? "yes" : "no");
  std::printf("voronoi:      %s\n",
              manifest->voronoi_head != mds::kInvalidPageId ? "yes" : "no");
  std::printf("provenance:   %s\n", manifest->provenance.c_str());
  return 0;
}

int RunVerify(const std::string& path) {
  auto dataset = mds::ServedDataset::Load(path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "mdsctl: verify failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("mdsctl: %s OK (%llu rows, dim %u, shard %u/%u, %s)\n",
              path.c_str(),
              static_cast<unsigned long long>(dataset->num_rows()),
              static_cast<unsigned>(dataset->dim()), dataset->shard_index(),
              dataset->shard_count(),
              dataset->mmap_backed() ? "mmap" : "file");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "build") return RunBuild(argc, argv);
  if (cmd == "inspect" && argc == 3) return RunInspect(argv[2]);
  if (cmd == "verify" && argc == 3) return RunVerify(argv[2]);
  return Usage();
}
