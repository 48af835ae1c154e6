package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"gapplydb"
	"gapplydb/client"
	"gapplydb/internal/coord"
	"gapplydb/internal/server"
)

// env is one booted deployment of a workload: the databases, servers
// and connections its requests run against.
type env struct {
	db       *gapplydb.Database // in-process database, or the server's / coordinator's
	dom      domains
	targets  []target // one per client
	srv      *server.Server
	co       *coord.Coordinator
	shardDBs []*gapplydb.Database
	shards   []*server.Server
	conns    []*client.Conn
	load     time.Duration // time spent in OpenTPCH / OpenTPCHShard
	dbs      []*gapplydb.Database
}

func (e *env) close() {
	for _, c := range e.conns {
		c.Close()
	}
	if e.co != nil {
		e.co.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e.srv != nil {
		e.srv.Shutdown(ctx)
	}
	for _, s := range e.shards {
		s.Shutdown(ctx)
	}
	for _, db := range e.dbs {
		db.Close()
	}
}

func (e *env) open(sf float64, shard, shards int) (*gapplydb.Database, error) {
	t0 := time.Now()
	var db *gapplydb.Database
	var err error
	if shards == 0 {
		db, err = gapplydb.OpenTPCH(sf)
	} else {
		db, err = gapplydb.OpenTPCHShard(sf, shard, shards)
	}
	e.load += time.Since(t0)
	if err != nil {
		return nil, err
	}
	e.dbs = append(e.dbs, db)
	return db, nil
}

// startServer boots a gapplyd server on a loopback port.
func startServer(db *gapplydb.Database, cfg server.Config) (*server.Server, error) {
	srv := server.New(db, cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(lis)
	for srv.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	return srv, nil
}

func (e *env) dial(srv *server.Server, db *gapplydb.Database) (*remoteTarget, error) {
	conn, err := client.Dial(srv.Addr().String())
	if err != nil {
		return nil, err
	}
	e.conns = append(e.conns, conn)
	return &remoteTarget{conn: conn, db: db}, nil
}

// setupLocal loads one database that requests run against in-process.
func setupLocal(sf float64) (*env, error) {
	e := &env{}
	db, err := e.open(sf, 0, 0)
	if err != nil {
		return e, err
	}
	e.db = db
	e.targets = []target{&localTarget{db: db}}
	e.dom, err = readDomains(db)
	return e, err
}

// setupServe boots gapplyd in-process and opens clients connections.
func setupServe(sf float64, clients int) (*env, error) {
	e := &env{}
	db, err := e.open(sf, 0, 0)
	if err != nil {
		return e, err
	}
	e.db = db
	if e.dom, err = readDomains(db); err != nil {
		return e, err
	}
	if e.srv, err = startServer(db, server.Config{}); err != nil {
		return e, err
	}
	for i := 0; i < clients; i++ {
		t, err := e.dial(e.srv, db)
		if err != nil {
			return e, err
		}
		e.targets = append(e.targets, t)
	}
	return e, nil
}

// shardCount is the sharded workload's worker count.
const shardCount = 3

// setupSharded boots shardCount workers holding hash partitions, a
// coordinator planning on a full replica, and the coordinator's server,
// the way a gapplyd cluster runs them.
func setupSharded(sf float64) (*env, error) {
	e := &env{}
	full, err := e.open(sf, 0, 0)
	if err != nil {
		return e, err
	}
	e.db = full
	if e.dom, err = readDomains(full); err != nil {
		return e, err
	}
	addrs := make([]string, shardCount)
	for i := range addrs {
		db, err := e.open(sf, i, shardCount)
		if err != nil {
			return e, err
		}
		srv, err := startServer(db, server.Config{})
		if err != nil {
			return e, err
		}
		e.shardDBs = append(e.shardDBs, db)
		e.shards = append(e.shards, srv)
		addrs[i] = srv.Addr().String()
	}
	if e.co, err = coord.New(coord.Config{DB: full, Shards: addrs}); err != nil {
		return e, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = e.co.WaitReady(ctx)
	cancel()
	if err != nil {
		return e, fmt.Errorf("cluster not ready: %w", err)
	}
	if e.srv, err = startServer(full, server.Config{Distributor: e.co}); err != nil {
		return e, err
	}
	t, err := e.dial(e.srv, full)
	if err != nil {
		return e, err
	}
	e.targets = []target{t}
	return e, nil
}
