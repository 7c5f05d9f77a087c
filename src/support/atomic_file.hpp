// Durable file publication: the one tmp + fsync + rename + directory-fsync
// sequence behind every state file that must survive a crash (the sweep
// journal's snapshots, beepmisd's pending-request and result-cache files,
// BMCSR graph files).
//
// After a successful return the new content is on stable storage under its
// final name: the temp file was fsynced before the rename, and the rename
// itself was made durable by fsyncing the containing directory.  A crash at
// any earlier point leaves the previous file at `path` untouched; at worst
// a stale temp file remains, which no reader looks at and the next publish
// overwrites.
#pragma once

#include <functional>
#include <string>
#include <string_view>

namespace beepmis::support {

/// Durably replaces `path` with `bytes`: writes "<path>.tmp", fsyncs it,
/// renames it over `path`, then fsyncs the directory.  Throws
/// std::runtime_error (naming the file and the errno text) on failure, after
/// removing the temp file.  `before_rename`, when set, runs once the temp
/// file is fully written and before it is synced and renamed — the
/// crash-point seam for fault-injection tests.
void atomic_write_file(const std::string& path, std::string_view bytes,
                       const std::function<void()>& before_rename = {});

/// The shared tail of every durable publish: fsyncs and closes `fd` (an
/// open, fully written temp file), renames `tmp_path` over `path`, and
/// fsyncs the containing directory.  `fd` is closed even when this throws;
/// the caller owns removing `tmp_path` on failure.
void publish_temp_file(int fd, const std::string& tmp_path, const std::string& path);

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.  Throws
/// std::runtime_error naming `what` on failure.
void write_all(int fd, std::string_view bytes, const std::string& what);

}  // namespace beepmis::support
