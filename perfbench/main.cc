// drtpbench — runs one workload of the drtp benchmark and prints one JSON
// line with its metrics, correctness gates and run metadata.
//
//   drtpbench --workload=sim-paper60|drtpd-wal-faults
//             --seed=N --seconds=S --trace=0|1 [--size=full|tiny]
//             [--drtpd=PATH]
//
// The daemon workload writes its socket, topology and WAL under the
// current directory, which must not be on tmpfs (fsync would cost
// nothing there). perfbench/run.py builds this binary and drives it.
#include <sys/vfs.h>

#include <cstdio>
#include <exception>
#include <string>

#include "bench_util.h"
#include "common/flags.h"
#include "common/json.h"

namespace {

constexpr long kTmpfsMagic = 0x01021994;
constexpr long kRamfsMagic = 0x858458f6;

std::string FsTypeName(long magic) {
  switch (magic) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794c7630:
      return "overlay";
    case kTmpfsMagic:
      return "tmpfs";
    case kRamfsMagic:
      return "ramfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", magic);
      return buf;
    }
  }
}

void WriteResult(const drtpbench::Result& r) {
  drtp::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(r.gate_failures.empty());
  w.Key("attempted").Int(r.attempted);
  w.Key("failed").Int(r.failed);
  w.Key("gate_failures").BeginArray();
  for (const std::string& g : r.gate_failures) w.String(g);
  w.EndArray();
  w.Key("metrics").BeginObject();
  for (const auto& m : r.metrics.items()) {
    w.Key(m.name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.Key("meta").BeginObject();
  for (const auto& [k, v] : r.meta) w.Key(k).String(v);
  w.EndObject();
  w.Key("table").String(r.table);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  drtp::FlagSet flags("drtpbench");
  auto& workload = flags.String("workload", "", "workload name");
  auto& seed = flags.Int64("seed", 1, "workload seed", 0, INT64_MAX);
  auto& seconds = flags.Double("seconds", 10.0, "measured seconds");
  auto& trace = flags.Int64("trace", 0, "1 = traced per-layer run", 0, 1);
  auto& size = flags.String("size", "full", "full | tiny (self-check)");
  auto& drtpd = flags.String("drtpd", "", "drtpd executable");
  flags.Parse(argc, argv);

#ifndef NDEBUG
  std::fprintf(stderr,
               "drtpbench: refusing a build without NDEBUG: debug builds "
               "check every incremental publish against a full rewrite\n");
  return 2;
#endif
  if (size != "full" && size != "tiny") {
    std::fprintf(stderr, "drtpbench: --size must be full or tiny\n");
    return 2;
  }
  if (!(seconds > 0)) {
    std::fprintf(stderr, "drtpbench: --seconds must be > 0\n");
    return 2;
  }

  drtpbench::Options opts;
  opts.workload = workload;
  opts.seed = static_cast<std::uint64_t>(seed);
  opts.seconds = seconds;
  opts.trace = trace == 1;
  opts.tiny = size == "tiny";
  opts.drtpd = drtpd;

  struct statfs fs {};
  if (statfs(".", &fs) != 0) {
    std::perror("drtpbench: statfs");
    return 2;
  }
  const long magic = static_cast<long>(fs.f_type);
  const bool daemon = workload == "drtpd-wal-faults";
  if (daemon && (magic == kTmpfsMagic || magic == kRamfsMagic)) {
    std::fprintf(stderr,
                 "drtpbench: refusing a WAL directory on %s, where fsync "
                 "costs nothing\n",
                 FsTypeName(magic).c_str());
    return 2;
  }
  if (daemon && drtpd.empty()) {
    std::fprintf(stderr, "drtpbench: --drtpd is required\n");
    return 2;
  }

  drtpbench::Result result;
  try {
    if (workload == "sim-paper60") {
      result = drtpbench::RunSimPaper60(opts);
    } else if (daemon) {
      result = drtpbench::RunDaemon(opts);
    } else {
      std::fprintf(stderr, "drtpbench: unknown workload '%s'\n",
                   workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "drtpbench: %s\n", e.what());
    return 1;
  }
  result.meta.insert(
      result.meta.begin(),
      {{"workload", workload},
       {"seed", std::to_string(seed)},
       {"size", size},
       {"build_type", DRTPBENCH_BUILD_TYPE},
       {"compiler", DRTPBENCH_COMPILER},
       {"ndebug", "true"},
       {"workdir_fs", FsTypeName(magic)}});
  WriteResult(result);
  return result.gate_failures.empty() ? 0 : 1;
}
