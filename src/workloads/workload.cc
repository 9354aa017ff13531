/**
 * @file
 * The built-in workload table, option resolution/validation, and the
 * lookups over the table.
 */

#include "workloads/workload.hh"

#include <cerrno>
#include <cstdlib>

#include "sim/logging.hh"

namespace ptm
{

// One per kernel translation unit.
WorkloadInfo fftWorkload();
WorkloadInfo luWorkload();
WorkloadInfo radixWorkload();
WorkloadInfo oceanWorkload();
WorkloadInfo waterWorkload();
WorkloadInfo kvWorkload();

namespace
{

const char *
optionKindName(WorkloadOption::Kind k)
{
    switch (k) {
      case WorkloadOption::Kind::U64:
        return "unsigned integer";
      case WorkloadOption::Kind::Real:
        return "real number";
    }
    return "?";
}

bool
validValue(const WorkloadOption &opt, const std::string &v)
{
    if (v.empty())
        return false;
    errno = 0;
    const char *begin = v.c_str();
    char *end = nullptr;
    if (opt.kind == WorkloadOption::Kind::U64) {
        if (v[0] == '-')
            return false;
        (void)std::strtoull(begin, &end, 0);
    } else {
        (void)std::strtod(begin, &end);
    }
    return errno == 0 && end && *end == '\0';
}

} // namespace

// GCC 12's -Wmaybe-uninitialized fires spuriously on the std::function
// inside the Step variant whenever vector growth relocates elements
// (the moved-from storage is value-initialized by the variant move
// constructor; see GCC PR 105562). Funnelling every barrier push
// through this helper confines the suppression to one function.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
void
pushBarrier(std::vector<Step> &steps, unsigned barrier_id)
{
    steps.push_back(BarrierStep{barrier_id});
}
#pragma GCC diagnostic pop

SyncMode
syncModeFor(TmKind kind)
{
    switch (kind) {
      case TmKind::Serial:
        return SyncMode::Serial;
      case TmKind::Locks:
        return SyncMode::Locks;
      default:
        return SyncMode::Tx;
    }
}

bool
WorkloadOptions::explicitlySet(const std::string &name) const
{
    return explicit_.count(name) != 0;
}

const std::string &
WorkloadOptions::str(const std::string &name) const
{
    auto it = index_.find(name);
    panic_if(it == index_.end(), "workload option '%s' was not resolved",
             name.c_str());
    return items_[it->second].second;
}

std::uint64_t
WorkloadOptions::u64(const std::string &name) const
{
    const std::string &v = str(name);
    errno = 0;
    char *end = nullptr;
    std::uint64_t out = std::strtoull(v.c_str(), &end, 0);
    panic_if(errno != 0 || !end || *end != '\0',
             "workload option '%s=%s' is not an unsigned integer",
             name.c_str(), v.c_str());
    return out;
}

double
WorkloadOptions::real(const std::string &name) const
{
    const std::string &v = str(name);
    errno = 0;
    char *end = nullptr;
    double out = std::strtod(v.c_str(), &end);
    panic_if(errno != 0 || !end || *end != '\0',
             "workload option '%s=%s' is not a number", name.c_str(),
             v.c_str());
    return out;
}

void
WorkloadOptions::set(const std::string &name, const std::string &value,
                     bool is_explicit)
{
    auto it = index_.find(name);
    if (it == index_.end()) {
        index_[name] = items_.size();
        items_.emplace_back(name, value);
    } else {
        items_[it->second].second = value;
    }
    if (is_explicit)
        explicit_.insert(name);
}

const std::vector<WorkloadInfo> &
workloadTable()
{
    static const std::vector<WorkloadInfo> table = {
        fftWorkload(),   luWorkload(),    radixWorkload(),
        oceanWorkload(), waterWorkload(), kvWorkload(),
    };
    return table;
}

const WorkloadInfo *
findWorkload(std::string_view name)
{
    for (const WorkloadInfo &info : workloadTable())
        if (info.name == name)
            return &info;
    return nullptr;
}

const WorkloadOption *
findWorkloadOption(const WorkloadInfo &info, std::string_view name)
{
    for (const auto &opt : info.options)
        if (opt.name == name)
            return &opt;
    return nullptr;
}

bool
resolveWorkloadOptions(const WorkloadInfo &info,
                       const WorkloadOptList &given, WorkloadOptions &out,
                       std::string *err)
{
    out = WorkloadOptions();
    for (const auto &opt : info.options)
        out.set(opt.name, opt.defaultValue, false);
    for (const auto &[name, value] : given) {
        const WorkloadOption *opt = findWorkloadOption(info, name);
        if (!opt) {
            if (err) {
                *err = "workload '" + info.name + "' has no option '" +
                       name + "'";
                if (info.options.empty()) {
                    *err += " (it takes none)";
                } else {
                    *err += "; known options:";
                    for (const auto &o : info.options)
                        *err += " " + o.name;
                }
            }
            return false;
        }
        if (!validValue(*opt, value)) {
            if (err)
                *err = "workload option '" + name + "=" + value +
                       "' is not a valid " +
                       optionKindName(opt->kind);
            return false;
        }
        out.set(name, value, true);
    }
    return true;
}

std::unique_ptr<Workload>
makeWorkload(std::string_view name, WorkloadConfig cfg,
             const WorkloadOptList &given)
{
    const WorkloadInfo *info = findWorkload(name);
    if (!info)
        fatal("unknown workload '%.*s' (known: %s)", int(name.size()),
              name.data(), workloadNameList().c_str());
    std::string err;
    if (!resolveWorkloadOptions(*info, given, cfg.options, &err))
        fatal("%s", err.c_str());
    return info->factory(cfg);
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadInfo &info : workloadTable())
        if (info.paperKernel)
            names.push_back(info.name);
    return names;
}

std::string
workloadNameList()
{
    std::string out;
    for (const WorkloadInfo &info : workloadTable()) {
        if (!out.empty())
            out += " | ";
        out += info.name;
    }
    return out;
}

} // namespace ptm
